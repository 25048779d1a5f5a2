package mst

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/proto"
)

// Message kinds (0x30 range).
const (
	kindFragEx  uint8 = 0x30 + iota // Part-1 exchange on live ports: A=fragID, B=1 if saturated at the last decision
	kindPropose                     // merge proposal, only over the MOE edge
	kindAccept                      // proposal accepted: A = acceptor fragment ID
	kindReject                      // proposal rejected
	kindWave                        // intra-fragment outcome wave: A=1 reorient, B=new frag ID
)

// InterEdge is one MST edge between two Part-1 fragments. After Run,
// every node holds the identical sorted list of all inter-fragment
// edges — the fragment tree T_F of the paper's Step 1.
type InterEdge struct {
	U, V         graph.NodeID
	FragU, FragV int64
}

// Result is one node's local output of the distributed MST+rooting.
type Result struct {
	// ParentPort/ChildPorts orient the MST rooted at node 0 (ParentPort
	// is -1 at node 0).
	ParentPort int
	ChildPorts []int
	// FragID identifies this node's Part-1 fragment; FragRootID is the
	// fragment's internal root (the attachment node nearest the global
	// root, the paper's r_i).
	FragID     int64
	FragRootID graph.NodeID
	// FragParentPort/FragChildPorts orient the fragment-internal
	// subtree (FragParentPort is -1 at the fragment root).
	FragParentPort int
	FragChildPorts []int
	// InterEdges is the full inter-fragment edge list, identical at
	// every node; RootFrag is the fragment containing node 0.
	InterEdges []InterEdge
	RootFrag   int64
	// FragParent maps each fragment to its parent fragment in the
	// rooted fragment forest (component roots map to -1). Identical at
	// every node.
	FragParent map[int64]int64
	// AllFrags is the census of every fragment ID, identical at every
	// node. Connected reports whether the (possibly reweighted) graph
	// was connected; if false, the result is a rooted spanning forest
	// and ParentPort is -1 at each component's root.
	AllFrags  []int64
	Connected bool
}

// TreePorts returns all ports of this node that carry MST edges.
func (r *Result) TreePorts() []int {
	ports := append([]int(nil), r.ChildPorts...)
	if r.ParentPort >= 0 {
		ports = append(ports, r.ParentPort)
	}
	sort.Ints(ports)
	return ports
}

// SizeCap returns the paper's fragment size threshold √n.
func SizeCap(n int) int {
	c := int(math.Ceil(math.Sqrt(float64(n))))
	if c < 1 {
		c = 1
	}
	return c
}

// Run executes the full distributed MST pipeline on one node: Part 1
// (controlled Borůvka up to the size cap), Part 2 (root-coordinated
// Borůvka over the fragment graph), and the Õ(√n + D) rooting of the
// resulting tree at node 0. bfs must be a BFS overlay rooted at node 0.
// loads maps incident edge IDs to packing loads (may be nil). seed
// drives Part 1's merge coin (see part1); every node must pass the same
// seed. The tree does not depend on it, only the fragments and the
// round count do.
func Run(nd *congest.Node, bfs *proto.Overlay, loads map[int]int64, sizeCap int, seed int64, tags *proto.Tags) *Result {
	return RunWeighted(nd, bfs, loads, nil, sizeCap, seed, tags)
}

// RunWeighted is Run with a per-port weight override: weight(p) <= 0
// means the edge at port p is absent (used by Karger-sampled skeleton
// graphs, which may be disconnected — the result is then a rooted
// spanning forest with Connected = false). A nil weight uses the
// underlying edge weights.
func RunWeighted(nd *congest.Node, bfs *proto.Overlay, loads map[int]int64, weight func(p int) int64, sizeCap int, seed int64, tags *proto.Tags) *Result {
	r := &runner{nd: nd, bfs: bfs, loads: loads, weight: weight, cap: sizeCap, seed: seed, tags: tags}
	if r.cap < 1 {
		r.cap = SizeCap(nd.N())
	}
	mark := nd.ID() == 0 // node 0 records the part spans for observability
	if mark {
		nd.Mark("begin:mst:part1")
	}
	st := r.part1()
	if mark {
		nd.Mark("end:mst:part1")
		nd.Mark("begin:mst:part2")
	}
	inter, allFrags, rootFrag := r.part2(st)
	if mark {
		nd.Mark("end:mst:part2")
		nd.Mark("begin:mst:root")
	}
	res := r.root(st, inter, allFrags, rootFrag)
	if mark {
		nd.Mark("end:mst:root")
	}
	return res
}

// runner bundles per-node state for one MST invocation.
type runner struct {
	nd     *congest.Node
	bfs    *proto.Overlay
	loads  map[int]int64
	weight func(p int) int64
	cap    int
	seed   int64
	tags   *proto.Tags

	// Per-port state Part 1 builds and Part 2 reads, allocated once per
	// run so the loops do not allocate per iteration (the packing loop
	// runs this code once per tree on every node; at the million scale
	// these were a top allocation source). port[p] classifies each port
	// (see portState); peerFrag[p] is the far endpoint's physical
	// fragment ID on every outer (live or settled) port.
	port     []portState
	peerFrag []int64
}

// portState is what a node knows about the far end of one port.
type portState uint8

const (
	// portLive: the far endpoint is in another fragment, and at the last
	// exchange at least one end's fragment was unsaturated. Part 1
	// exchanges and proposals cross only live ports.
	portLive portState = iota
	// portInner: the far endpoint is in the node's own fragment, or the
	// edge is absent from the view. Nothing crosses it in either part.
	portInner
	// portSettled: the far endpoint is in another fragment, and both
	// ends' fragments were saturated at an exchange. Neither fragment
	// changes its ID again, so peerFrag is final and nothing crosses the
	// port in Part 1. Part 2 treats it as outer.
	portSettled
)

func (r *runner) load(port int) int64 {
	if r.loads == nil {
		return 0
	}
	return r.loads[r.nd.EdgeID(port)]
}

// w returns the effective weight of the edge at port p; <= 0 means the
// edge is absent from the (sampled) graph.
func (r *runner) w(port int) int64 {
	if r.weight == nil {
		return r.nd.EdgeWeight(port)
	}
	return r.weight(port)
}

// keyItem encodes an MOE candidate as a 4-word item:
// A=load, B=weight, C=packed endpoints, D=packed target (logical<<31|phys).
var noneItem = proto.Item{A: math.MaxInt64}

func isNone(it proto.Item) bool { return it.A == math.MaxInt64 }

func betterCand(a, b proto.Item) proto.Item {
	if isNone(a) {
		return b
	}
	if isNone(b) {
		return a
	}
	ka := Key{Load: a.A, W: a.B, UV: a.C}
	kb := Key{Load: b.A, W: b.B, UV: b.C}
	if kb.Less(ka) {
		return b
	}
	return a
}

// p1state is the node's fragment-local view during Part 1.
type p1state struct {
	fragID     int64
	parentPort int
	childPorts []int
}

func (s *p1state) overlay() *proto.Overlay {
	return proto.NewOverlay(s.parentPort, s.childPorts, 0)
}

func (s *p1state) ports() []int {
	ports := append([]int(nil), s.childPorts...)
	if s.parentPort >= 0 {
		ports = append(ports, s.parentPort)
	}
	sort.Ints(ports)
	return ports
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// part1TagsPerIter is the tags one Part 1 iteration draws: the
// exchange, the two-slot fragment convergecast, the decision broadcast,
// the proposal, the reply and the outcome wave.
const part1TagsPerIter = 7

// part1 grows MST fragments until every fragment has at least cap
// nodes (or spans the graph). Merge structures are depth-one stars: an
// unsaturated fragment proposes along its minimum outgoing edge when
// its coin shows tails or when the far end reported saturation at the
// last exchange; proposers reject, and every other fragment (saturated
// ones and heads that do not propose) accepts. A heads fragment that
// proposes must reject: in a chain T→F→S it merges into S, so
// accepting T would leave T's nodes holding F's old ID. A saturated
// fragment keeps its ID and stays saturated, so a proposal to a peer
// that reported saturation always lands on an acceptor.
//
// Fragment-ID exchanges and proposals cross only live ports (see
// portState). A port turns inner once its exchange returns the node's
// own fragment ID and stays inner, because the outcome wave relabels a
// whole fragment at once. The exchange also carries the sender's
// saturation as of its last decision broadcast; a port whose two ends
// both report saturation settles, and both ends see that at the same
// exchange. Saturated fragments never propose, so they keep their ID
// and no proposal can cross a settled port. Each node keeps every live
// port's last saturation bit and puts it into the MOE candidate's D
// word above the peer's fragment ID, so the fragment root learns it
// with the MOE. Every fragment starts as its node's ID, so iteration 0
// skips the exchange.
//
// A PROPOSE goes out only on the MOE port, and nothing marks "no
// proposal": the next exchange on each port closes that port's
// proposal window. Send keeps each port FIFO, and a proposer sends its
// next exchange only after its reply, so a neighbor's PROPOSE always
// arrives before that neighbor's next exchange on the same port. The
// exchange loop therefore also takes the last iteration's PROPOSEs and
// answers each on receipt, by the last iteration's accept rule; once
// it holds one exchange per live port, it has answered every proposal.
// An accepted port joins childPorts right there, before the next
// fragment waves. While a proposing node waits for its reply, it
// rejects the PROPOSEs of the same iteration that reach it (a proposer
// never accepts); the others wait for the next exchange loop.
//
// No wait forms a cycle, by induction over iterations. Once every node
// has finished an iteration's exchange loop, each fragment finishes its
// two waves, which wait on nothing outside it. After that only a
// proposing node waits across fragments, for the fragment its MOE
// points to; the other nodes of a proposing fragment wait only for its
// outcome wave. A proposing node rejects a PROPOSE on receipt, and a
// node of a non-proposing fragment answers in its next exchange loop,
// which it enters right after its fragment's waves. A saturated
// fragment never proposes, so a proposal sent because the target
// reported saturation waits on a non-proposing fragment, which
// answers. Proposals follow MOE edges, so the waits-for graph is a
// forest plus mutual pairs: with unique keys, two fragments' MOEs point
// at each other only over one shared edge, whose two ends are both
// proposing nodes. Every chain of waits thus ends at a node that
// answers, every proposer hears back, every node sends its next
// exchange, and the next exchange loop finishes too.
//
// Each iteration costs exactly two fragment-tree waves: one batched
// convergecast (size and minimum outgoing edge ride the same wave via
// ConvergeItemVec) and one broadcast (control bits and the winning edge
// packed into a single item).
//
// Each fragment leaves on its own: once none of its ports is live (so
// it is saturated, or has no outgoing edge at all), the root sees no
// minimum outgoing edge, sets a stop bit in the broadcast, and every
// member returns. Nothing can reach the fragment again, since all its
// outer ports are settled. Fragments thus leave at different
// iterations, so Part 1 draws its tags from a block sized for maxIter
// iterations: a live port's two ends have run the same iterations and
// agree on tags, and every node leaves the parent counter at the same
// place. Part 1 returns right after an exchange, with no relabel after
// it (Part 2 relies on this).
func (r *runner) part1() *p1state {
	nd := r.nd
	st := &p1state{fragID: int64(nd.ID()), parentPort: -1}
	maxIter := 60 + 14*bitlen(nd.N())
	tags := r.tags.Sub(part1TagsPerIter * (maxIter + 1))
	// The tags, the propose port and the accept rule advance through
	// the captured variables (stable while the node is parked), so the
	// receive loops do not allocate a closure per message. Until this
	// iteration's decision they hold the last iteration's values.
	var exTag, proposeTag, replyTag uint32
	proposePort := -1
	accept := false
	// The exchange loop: this iteration's exchanges, the last one's
	// proposals.
	matchEx := func(_ int, m congest.Message) bool {
		return (m.Kind == kindFragEx && m.Tag == exTag) || (m.Kind == kindPropose && m.Tag == proposeTag)
	}
	// The reply wait: the reply to this node's proposal, and the
	// proposals of the same iteration.
	matchReply := func(p int, m congest.Message) bool {
		switch m.Kind {
		case kindAccept, kindReject:
			return p == proposePort && m.Tag == replyTag
		case kindPropose:
			return m.Tag == proposeTag
		}
		return false
	}
	// answer replies to a PROPOSE that arrived on port p. An accepted
	// proposer's fragment hangs below this node from now on.
	answer := func(p int) {
		if !accept {
			nd.Send(p, congest.Message{Kind: kindReject, Tag: replyTag})
			return
		}
		nd.Send(p, congest.Message{Kind: kindAccept, Tag: replyTag, A: st.fragID})
		st.childPorts = append(st.childPorts, p)
	}
	deg := nd.Degree()
	r.port = make([]portState, deg)
	r.peerFrag = make([]int64, deg)
	port, peerFrag := r.port, r.peerFrag
	// peerSat[p] is the saturation bit of the last exchange on port p.
	peerSat := make([]bool, deg)
	live := 0
	for p := 0; p < deg; p++ {
		peerFrag[p] = int64(nd.Peer(p))
		if r.w(p) <= 0 {
			port[p] = portInner
		} else {
			live++
		}
	}
	// saturated is the fragment's saturation as of the last decision
	// broadcast this node received. A node that just merged still holds
	// its old fragment's false until the next broadcast, which only keeps
	// its ports live a little longer.
	saturated := false
	for iter := 0; ; iter++ {
		if iter > maxIter {
			panic(fmt.Sprintf("mst: part 1 did not converge after %d iterations", iter))
		}

		// Exchange fragment IDs and saturation over the live ports, and
		// answer the last iteration's proposals as they come; a port
		// whose peer answers with our own ID turns inner, one whose two
		// ends are saturated settles.
		if iter > 0 {
			exTag = tags.Next(1)
			for p := 0; p < deg; p++ {
				if port[p] == portLive {
					nd.Send(p, congest.Message{Kind: kindFragEx, Tag: exTag, A: st.fragID, B: b2i(saturated)})
				}
			}
			for pending := live; pending > 0; {
				p, m := nd.Recv(matchEx)
				if m.Kind == kindPropose {
					answer(p)
					continue
				}
				pending--
				peerFrag[p], peerSat[p] = m.A, m.B == 1
				switch {
				case m.A == st.fragID:
					port[p] = portInner
					live--
				case saturated && m.B == 1:
					port[p] = portSettled
					live--
				}
			}
		}
		ov := st.overlay()

		// Local minimum outgoing edge: every live port is one, so the
		// fragment's MOE is none exactly when it has no live port. Only a
		// saturated fragment has settled ports, and it does not propose.
		// D carries the peer's saturation bit above its fragment ID;
		// betterCand never reads D.
		cand, candPort := noneItem, -1
		for p := 0; p < deg; p++ {
			if port[p] != portLive {
				continue
			}
			it := proto.Item{
				A: r.load(p),
				B: r.w(p),
				C: PackUV(nd.ID(), nd.Peer(p)),
				D: b2i(peerSat[p])<<31 | peerFrag[p],
			}
			if isNone(cand) || betterCand(cand, it) == it {
				cand, candPort = it, p
			}
		}

		// One batched wave up the fragment tree: slot 0 sums the
		// fragment size, slot 1 carries its minimum outgoing edge.
		up, _ := proto.ConvergeItemVec(nd, ov, tags,
			[]proto.Item{{A: 1}, cand},
			func(slot int, a, b proto.Item) proto.Item {
				if slot == 0 {
					return proto.Item{A: a.A + b.A}
				}
				return betterCand(a, b)
			})

		// The root now holds size and MOE together: saturation, the merge
		// coin, the proposal and the stop decision come out of one place.
		// An unsaturated fragment proposes on tails, or on heads when its
		// MOE leads to a fragment that reported saturation.
		// The coin is a hash of the seed, the root's ID and the tag
		// counter, which no other fragment or iteration of this run
		// shares, so the engine needs no random state. A fragment with no
		// MOE has no live port, so it stops; isolated small fragments
		// (possible under sampled views) thus stop growing.
		var ctl, rootMoeUV int64
		if ov.Root {
			size, moe := up[0].A, up[1]
			sat := size >= int64(r.cap)
			coinTail := proto.SeedHash(r.seed, uint64(nd.ID()), uint64(tags.Next(0)))&1 == 1
			stop := isNone(moe)
			targetSat := moe.D>>31 == 1
			ctl = b2i(sat) | b2i(coinTail)<<1 | b2i((coinTail || targetSat) && !sat && !stop)<<2 | b2i(stop)<<3
			rootMoeUV = moe.C
		}

		// One wave down the fragment tree: control bits and the winning
		// MOE endpoints share a single item.
		dec := proto.BroadcastItem(nd, ov, tags, proto.Item{A: ctl, B: rootMoeUV})
		if dec.A&8 != 0 {
			return st
		}
		saturated = dec.A&1 != 0
		proposing := dec.A&4 != 0
		accept = saturated || (dec.A&2 == 0 && !proposing)

		// The node holding the MOE proposes over it and waits for the
		// reply; the whole proposing fragment then runs the outcome wave
		// (reorient toward the proposer and adopt the acceptor's fragment
		// ID, or keep everything). Every node draws the three tags,
		// proposing or not.
		proposeTag, replyTag = tags.Next(1), tags.Next(1)
		waveTag := tags.Next(1)
		if !proposing {
			continue
		}
		proposePort = -1
		merged, newFrag := false, int64(0)
		if candPort >= 0 && cand.C == dec.B {
			proposePort = candPort
			nd.Send(proposePort, congest.Message{Kind: kindPropose, Tag: proposeTag, A: st.fragID})
			for {
				p, m := nd.Recv(matchReply)
				if m.Kind == kindPropose {
					answer(p)
					continue
				}
				merged, newFrag = m.Kind == kindAccept, m.A
				break
			}
		}
		r.outcomeWave(st, proposePort, merged, newFrag, waveTag)
	}
}

// outcomeWave floods the proposal outcome through the proposer's old
// fragment tree. On acceptance every fragment node re-roots toward the
// proposer and adopts the new fragment ID; on rejection the wave is a
// pure notification. Exactly one message crosses each fragment edge.
func (r *runner) outcomeWave(st *p1state, proposePort int, merged bool, newFrag int64, tag uint32) {
	nd := r.nd
	oldPorts := st.ports()
	if proposePort >= 0 {
		// Initiator (the proposing node).
		for _, p := range oldPorts {
			nd.Send(p, congest.Message{Kind: kindWave, Tag: tag, A: b2i(merged), B: newFrag})
		}
		if merged {
			st.fragID = newFrag
			st.parentPort = proposePort
			st.childPorts = oldPorts
		}
		return
	}
	from, m := nd.Recv(func(p int, m congest.Message) bool {
		if m.Kind != kindWave || m.Tag != tag {
			return false
		}
		// oldPorts is sorted (st.ports); binary search keeps predicate
		// evaluation O(log k) even at high-degree fragment heads, where
		// many wave messages can be buffered at once.
		i := sort.SearchInts(oldPorts, p)
		return i < len(oldPorts) && oldPorts[i] == p
	})
	for _, p := range oldPorts {
		if p != from {
			nd.Send(p, m)
		}
	}
	if m.A == 1 {
		st.fragID = m.B
		st.parentPort = from
		st.childPorts = st.childPorts[:0]
		for _, p := range oldPorts {
			if p != from {
				st.childPorts = append(st.childPorts, p)
			}
		}
		sort.Ints(st.childPorts)
	}
}

// Part 2 item kinds. The BFS root's flood carries the chosen edges,
// sorted by packed endpoints, then the census (only at a disconnected
// end) and one done item.
const (
	itemCensus int64 = -1 // gather, iteration 0 only: B = a physical fragment root's fragment ID
	itemEdge   int64 = 4  // flood: chosen MST edge, B = u<<31|v, C = physU<<31|physV, D = logicalU<<31|logicalV
	itemDone   int64 = 5  // flood: B = 1 if Part 2 is over, then C = node 0's fragment, D = 1 if the view is connected
	itemFrag   int64 = 6  // flood, disconnected end only: census entry, B = a physical fragment ID
)

// low31 masks the low half of a word that packs two 31-bit values.
const low31 = 1<<31 - 1

// part2 merges the O(√n) Part-1 fragments into the MST using logical
// fragment IDs coordinated at the BFS root. It returns, identical at
// every node, the inter-fragment MST edges, the fragment census sorted
// by ID and node 0's fragment.
//
// Part 2 sends nothing between neighbors. Part 1 returns right after
// an exchange, with no relabel after it, so peerFrag holds every live
// peer's physical fragment ID, and inner peers share the node's own. A
// settled peer's ID was final when its port settled.
// Logical IDs start equal to physical ones. Each iteration's Flood
// hands every node the chosen edges with both ends' logical IDs, and
// every node, the root included, derives the same relabel from them
// (unionRelabel), so each node relabels itself and its peers locally.
//
// The census rides along: in iteration 0 every physical fragment root
// adds a marker with its fragment ID to the Gather. Part 2 ends in the
// iteration whose unions leave one logical fragment, or, when the view
// is disconnected, in the first iteration without any candidate; the
// done item of that flood carries node 0's fragment. At a connected end
// the inter-fragment edges span every fragment, so each node derives
// the census from them (connectedCensus); only a disconnected end
// floods it.
func (r *runner) part2(st *p1state) (inter []InterEdge, allFrags []int64, rootFrag int64) {
	nd := r.nd
	fragOv := st.overlay()
	physID := st.fragID
	logical := physID
	maxIter := 4 + 2*bitlen(nd.N())
	port, peerPhys := r.port, r.peerFrag
	peerLogical := append([]int64(nil), peerPhys...)
	var root *part2Root
	if r.bfs.Root {
		root = &part2Root{rootFrag: physID}
	}
	for iter := 0; ; iter++ {
		if iter > maxIter {
			panic(fmt.Sprintf("mst: part 2 did not converge after %d iterations", iter))
		}
		// Fragment MOE w.r.t. logical IDs. The packed endpoints are
		// canonical (for key uniqueness and mutual-MOE dedup at the
		// root), so a swap flag records whether the canonical U is the
		// far endpoint — the root needs (U,V) aligned with
		// (FragU,FragV) when it emits inter-fragment edges. The flag
		// rides in D's sign (bitwise NOT of the 62-bit pack), keeping
		// the word within the runtime's ±2^62 payload budget
		// (congest.PayloadLimit).
		cand := noneItem
		for p := 0; p < nd.Degree(); p++ {
			if port[p] == portInner || peerLogical[p] == logical {
				continue
			}
			d := peerLogical[p]<<31 | peerPhys[p]
			if nd.ID() > nd.Peer(p) {
				d = ^d
			}
			it := proto.Item{
				A: r.load(p),
				B: r.w(p),
				C: PackUV(nd.ID(), nd.Peer(p)),
				D: d,
			}
			if isNone(cand) || betterCand(cand, it) == it {
				cand = it
			}
		}
		moe, _ := proto.ConvergeItem(nd, fragOv, r.tags, cand, betterCand)

		// Physical-fragment roots upcast their candidate to the BFS
		// root as one packed item: A = load<<31|weight, B = packed
		// endpoints, C = packed (myLogical, myPhys), D = packed
		// (targetLogical, targetPhys) with the swap flag in the sign.
		// Loads and weights stay below 2^31 in every workload, so the
		// packing is lossless, and A is never negative.
		var mine []proto.Item
		if fragOv.Root {
			if iter == 0 {
				mine = append(mine, proto.Item{A: itemCensus, B: physID})
			}
			if !isNone(moe) {
				mine = append(mine, proto.Item{
					A: moe.A<<31 | moe.B,
					B: moe.C,
					C: logical<<31 | physID,
					D: moe.D,
				})
			}
		}
		gathered := proto.Gather(nd, r.bfs, r.tags, mine)

		// The BFS root (node 0) picks the chosen edges locally.
		var flood []proto.Item
		if root != nil {
			flood = root.merge(gathered, iter)
		}
		got := proto.Flood(nd, r.bfs, r.tags, flood)

		ids, to := unionRelabel(got)
		logical = relabel(ids, to, logical)
		for p, l := range peerLogical {
			peerLogical[p] = relabel(ids, to, l)
		}
		for _, it := range got {
			switch it.A {
			case itemEdge:
				inter = append(inter, InterEdge{
					U: graph.NodeID(it.B >> 31), V: graph.NodeID(it.B & low31),
					FragU: it.C >> 31, FragV: it.C & low31,
				})
			case itemFrag:
				allFrags = append(allFrags, it.B)
			case itemDone:
				if it.B == 1 {
					rootFrag = it.C
					if it.D == 1 {
						allFrags = connectedCensus(inter, rootFrag)
					}
					return inter, allFrags, rootFrag
				}
			}
		}
	}
}

// unionRelabel derives one Part 2 iteration's relabel from the flooded
// chosen edges: it unions the two logical IDs of every edge and maps
// each joined ID to the minimum ID of its component. It returns the
// joined IDs sorted and, aligned with them, their new IDs; relabel
// looks an ID up in the pair.
func unionRelabel(flood []proto.Item) (ids, to []int64) {
	for _, it := range flood {
		if it.A == itemEdge {
			ids = append(ids, it.D>>31, it.D&low31)
		}
	}
	if len(ids) == 0 {
		return nil, nil
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	// ids is sorted, so each set's root, its minimum index, is the
	// component's minimum ID.
	uf := newUnionFind(len(ids))
	for _, it := range flood {
		if it.A == itemEdge {
			a, _ := slices.BinarySearch(ids, it.D>>31)
			b, _ := slices.BinarySearch(ids, it.D&low31)
			uf.union(a, b)
		}
	}
	to = make([]int64, len(ids))
	for i := range ids {
		to[i] = ids[uf.find(i)]
	}
	return ids, to
}

// relabel maps logical ID l through unionRelabel's (ids, to); an ID
// that ids does not list is unchanged.
func relabel(ids, to []int64, l int64) int64 {
	if i, ok := slices.BinarySearch(ids, l); ok {
		return to[i]
	}
	return l
}

// connectedCensus derives the census at a connected end: the
// inter-fragment edges span every fragment, so the census is node 0's
// fragment plus every edge's two fragments, sorted.
func connectedCensus(inter []InterEdge, rootFrag int64) []int64 {
	frags := make([]int64, 0, 2*len(inter)+1)
	frags = append(frags, rootFrag)
	for _, ie := range inter {
		frags = append(frags, ie.FragU, ie.FragV)
	}
	slices.Sort(frags)
	return slices.Compact(frags)
}

// cand2 is a reassembled Part-2 candidate at the BFS root.
type cand2 struct {
	key                       Key
	u, v                      graph.NodeID
	myLogical, myPhys         int64
	targetLogical, targetPhys int64
}

// part2Root is the BFS root's Part 2 state across iterations: the
// fragment census sorted by physical ID, each census fragment's current
// logical ID, and the root's own fragment.
type part2Root struct {
	rootFrag int64
	census   []int64
	logical  []int64
}

// merge takes one iteration's gathered items, picks each logical
// fragment's best candidate, and returns the flood: the chosen edges
// and the done item, with the census before it when Part 2 ends on a
// disconnected view.
func (s *part2Root) merge(items []proto.Item, iter int) []proto.Item {
	if iter == 0 {
		for _, it := range items {
			if it.A == itemCensus {
				s.census = append(s.census, it.B)
			}
		}
		slices.Sort(s.census)
		s.logical = append([]int64(nil), s.census...)
	}
	best := make(map[int64]cand2) // per myLogical
	for _, it := range items {
		if it.A == itemCensus {
			continue
		}
		uv := it.B
		u, v := UnpackUV(uv)
		d := it.D
		if d < 0 {
			d = ^d
			u, v = v, u // align u with the proposing fragment
		}
		c := cand2{
			key:           Key{Load: it.A >> 31, W: it.A & low31, UV: uv},
			u:             u,
			v:             v,
			myLogical:     it.C >> 31,
			myPhys:        it.C & low31,
			targetLogical: d >> 31,
			targetPhys:    d & low31,
		}
		if cur, ok := best[c.myLogical]; !ok || c.key.Less(cur.key) {
			best[c.myLogical] = c
		}
	}
	if len(best) == 0 {
		// No logical fragment has an outgoing edge: each component is
		// one logical fragment. A connected view with several fragments
		// ends at its last union instead, one iteration earlier.
		return s.done(nil)
	}
	// A mutual MOE arrives from both sides; keep the side with the
	// smaller logical ID so the emitted (U, V, FragU, FragV) orientation
	// does not follow map iteration order.
	chosen := make(map[int64]cand2)
	for _, c := range best {
		if cur, ok := chosen[c.key.UV]; !ok || c.myLogical < cur.myLogical {
			chosen[c.key.UV] = c
		}
	}
	uvs := make([]int64, 0, len(chosen))
	for uv := range chosen {
		uvs = append(uvs, uv)
	}
	slices.Sort(uvs)
	flood := make([]proto.Item, 0, len(uvs)+1)
	for _, uv := range uvs {
		c := chosen[uv]
		flood = append(flood, proto.Item{
			A: itemEdge,
			B: int64(c.u)<<31 | int64(c.v),
			C: c.myPhys<<31 | c.targetPhys,
			D: c.myLogical<<31 | c.targetLogical,
		})
	}
	// Track the census through the relabel every node derives; once
	// every fragment shares one logical ID, no candidate can appear
	// again.
	ids, to := unionRelabel(flood)
	for i, l := range s.logical {
		s.logical[i] = relabel(ids, to, l)
	}
	if s.connected() {
		return s.done(flood)
	}
	return append(flood, proto.Item{A: itemDone})
}

// connected reports whether every census fragment shares one logical ID.
func (s *part2Root) connected() bool {
	for _, l := range s.logical {
		if l != s.logical[0] {
			return false
		}
	}
	return true
}

// done appends the last flood's done item, carrying the root's fragment
// and whether the view is connected. A disconnected view's census does
// not follow from the inter-fragment edges, so it precedes the done
// item.
func (s *part2Root) done(flood []proto.Item) []proto.Item {
	connected := s.connected()
	if !connected {
		for _, f := range s.census {
			flood = append(flood, proto.Item{A: itemFrag, B: f})
		}
	}
	return append(flood, proto.Item{A: itemDone, B: 1, C: s.rootFrag, D: b2i(connected)})
}

// root orients the MST (or spanning forest, under a sampled view) in
// Õ(√n + D): the fragment forest is known to every node (InterEdges +
// census, both from Part 2), so orientation between fragments is a
// local computation, and each fragment re-roots internally at its
// attachment node with one O(√n)-round adopt wave — the phase's only
// communication. Node 0 roots its component; every other component is
// rooted at its minimum fragment ID.
func (r *runner) root(st *p1state, inter []InterEdge, allFrags []int64, rootFrag int64) *Result {
	nd := r.nd
	myPhys := st.fragID

	// Locally orient the fragment forest.
	fragParent, attach := orientForest(inter, allFrags, rootFrag)
	components := 0
	for _, p := range fragParent {
		if p == -1 {
			components++
		}
	}

	// Re-root my fragment at its attachment node; component-root
	// fragments re-root at node 0 (root component) or at the node whose
	// ID equals the fragment ID (its Part-1 root, a member by
	// construction).
	var internalRoot graph.NodeID
	switch {
	case myPhys == rootFrag:
		internalRoot = 0
	case fragParent[myPhys] == -1:
		internalRoot = graph.NodeID(myPhys)
	default:
		internalRoot = attach[myPhys].inner
	}
	wave := proto.AdoptWave(nd, st.ports(), nd.ID() == internalRoot, r.tags)

	res := &Result{
		FragID:         myPhys,
		FragRootID:     internalRoot,
		FragParentPort: wave.ParentPort,
		FragChildPorts: append([]int(nil), wave.ChildPorts...),
		InterEdges:     inter,
		RootFrag:       rootFrag,
		FragParent:     fragParent,
		AllFrags:       allFrags,
		Connected:      components == 1,
	}

	// Assemble the global tree ports.
	res.ParentPort = wave.ParentPort
	if nd.ID() == internalRoot {
		if fragParent[myPhys] == -1 {
			res.ParentPort = -1
		} else {
			res.ParentPort = nd.PortTo(attach[myPhys].outer)
		}
	}
	res.ChildPorts = append([]int(nil), wave.ChildPorts...)
	for _, ie := range inter {
		// If I am the parent-side endpoint of an inter-fragment edge, the
		// child fragment hangs off me.
		if fragParent[ie.FragU] == ie.FragV && ie.V == nd.ID() {
			res.ChildPorts = append(res.ChildPorts, nd.PortTo(ie.U))
		}
		if fragParent[ie.FragV] == ie.FragU && ie.U == nd.ID() {
			res.ChildPorts = append(res.ChildPorts, nd.PortTo(ie.V))
		}
	}
	sort.Ints(res.ChildPorts)
	return res
}

// attachment records, for a fragment, its node incident to the parent
// fragment (inner) and the peer endpoint in the parent (outer).
type attachment struct {
	inner graph.NodeID
	outer graph.NodeID
}

// orientForest builds parent pointers for the fragment forest: node 0's
// component is rooted at rootFrag, every other component at its minimum
// fragment ID. Pure local computation on globally known data.
func orientForest(inter []InterEdge, allFrags []int64, rootFrag int64) (map[int64]int64, map[int64]attachment) {
	adj := make(map[int64][]InterEdge)
	for _, ie := range inter {
		adj[ie.FragU] = append(adj[ie.FragU], ie)
		adj[ie.FragV] = append(adj[ie.FragV], ie)
	}
	fragParent := make(map[int64]int64, len(allFrags))
	attach := make(map[int64]attachment)
	seen := make(map[int64]bool, len(allFrags))

	orient := func(root int64) {
		fragParent[root] = -1
		seen[root] = true
		queue := []int64{root}
		for len(queue) > 0 {
			f := queue[0]
			queue = queue[1:]
			for _, ie := range adj[f] {
				child, childInner, childOuter := ie.FragV, ie.V, ie.U
				if ie.FragV == f {
					child, childInner, childOuter = ie.FragU, ie.U, ie.V
				}
				if seen[child] {
					continue
				}
				seen[child] = true
				fragParent[child] = f
				attach[child] = attachment{inner: childInner, outer: childOuter}
				queue = append(queue, child)
			}
		}
	}
	orient(rootFrag)
	// Remaining components, smallest fragment ID first (allFrags is
	// sorted by the AllGather).
	for _, f := range allFrags {
		if !seen[f] {
			orient(f)
		}
	}
	return fragParent, attach
}

// bitlen returns the number of bits of n (≈ log2 n + 1).
func bitlen(n int) int {
	b := 0
	for n > 0 {
		b++
		n >>= 1
	}
	return b
}

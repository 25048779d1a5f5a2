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
	kindUpEdge                      // Part 2 upcast edge: A=load<<31|weight, B=packed endpoints, C=fragU<<31|fragV
	kindUpEnd                       // Part 2 upcast end: A=Part-1 fragment roots in the sender's subtree, B/C=its largest load ratio
)

// InterEdge is one MST edge between two Part-1 fragments; U is its
// smaller-ID endpoint and lies in FragU. After Run, every node holds
// the identical list of all inter-fragment edges in key order — the
// fragment tree T_F of the paper's Step 1.
type InterEdge struct {
	U, V         graph.NodeID
	FragU, FragV int64
}

// Result is one node's local output of the distributed MST+rooting.
// On a disconnected view only Connected (false) is set.
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
	// fragment tree rooted at RootFrag (which maps to -1). Identical at
	// every node.
	FragParent map[int64]int64
	// Connected reports whether the (possibly reweighted) graph was
	// connected.
	Connected bool
	// MaxLoad/MaxLoadWeight is the largest load(e)/w(e) over the view's
	// edges once this tree's edges count one load more (the packing
	// loads after this tree), in lowest terms. Identical at every node.
	MaxLoad, MaxLoadWeight int64
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
// (controlled Borůvka up to the size cap), Part 2 (one pipelined,
// cycle-filtered upcast of the fragment graph), and the Õ(√n + D)
// rooting of the resulting tree at node 0. bfs must be a BFS overlay
// rooted at node 0. loads maps incident edge IDs to packing loads (may
// be nil). seed drives Part 1's merge coin (see part1); every node must
// pass the same seed. The tree does not depend on it, only the
// fragments and the round count do.
func Run(nd *congest.Node, bfs *proto.Overlay, loads map[int]int64, sizeCap int, seed int64, tags *proto.Tags) *Result {
	return RunWeighted(nd, bfs, loads, nil, sizeCap, seed, tags)
}

// RunWeighted is Run with a per-port weight override: weight(p) <= 0
// means the edge at port p is absent (used by Karger-sampled skeleton
// graphs, which may be disconnected: every node then returns right
// after Part 2 with Connected = false). A nil weight uses the
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
	inter, rootFrag, connected := r.part2(st)
	if mark {
		nd.Mark("end:mst:part2")
	}
	if !connected {
		return &Result{}
	}
	if mark {
		nd.Mark("begin:mst:root")
	}
	res := r.root(st, inter, rootFrag)
	if mark {
		nd.Mark("end:mst:root")
	}
	res.MaxLoad, res.MaxLoadWeight = r.maxLoad, r.maxLoadWeight
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
	// upSent counts the edges this node forwarded in Part 2's upcast.
	upSent int
	// maxLoad/maxLoadWeight is the load ratio Part 2 floods (see
	// Result.MaxLoad).
	maxLoad, maxLoadWeight int64
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
// A=load, B=weight, C=packed endpoints, D=the peer's saturation
// bit<<31|its fragment ID.
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

// part1MaxIter bounds Part 1's iterations on an n-node network.
func part1MaxIter(n int) int { return 60 + 14*bitlen(n) }

// MaxTags is the number of tags one Run draws on an n-node network:
// Part 1's block, Part 2's upcast and flood, and the rooting wave. A
// caller that runs an MST beside another protocol hands it a Sub block
// of this size.
func MaxTags(n int) int { return part1TagsPerIter*(part1MaxIter(n)+1) + 3 }

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
	maxIter := part1MaxIter(nd.N())
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

// low31 masks the low half of a word that packs two 31-bit values.
const low31 = 1<<31 - 1

// upKey reads the Key of a Part 2 upcast item: A = load<<31|weight,
// B = packed endpoints.
func upKey(it proto.Item) Key {
	return Key{Load: it.A >> 31, W: it.A & low31, UV: it.B}
}

// part2 connects the Part-1 fragments with one pipelined,
// cycle-filtered upcast over the BFS tree (Kutten–Peleg; see upcast),
// after which node 0 holds the fragment graph's minimum spanning forest
// in Kruskal order, the fragment count and the upcast's load ratio. It
// counts the forest's edges, the tree's inter-fragment edges, at one
// load more, then floods the edges and one item with its fragment,
// whether the forest is one tree, and the ratio (Result.MaxLoad).
//
// Part 2 sends nothing between neighbors. Part 1 returns right after
// an exchange, with no relabel after it, so peerFrag holds every live
// peer's fragment ID, and a settled peer's ID was final when its port
// settled.
func (r *runner) part2(st *p1state) (inter []InterEdge, rootFrag int64, connected bool) {
	var flood []proto.Item
	if forest, frags, l, w := r.upcast(st); r.bfs.Root {
		for _, it := range forest {
			l, w = maxRatio(l, w, it.A>>31+1, it.A&low31)
		}
		g := gcd(l, w)
		flood = append(forest, proto.Item{A: st.fragID, B: b2i(int64(len(forest)) == frags-1), C: l / g, D: w / g})
	}
	got := proto.Flood(r.nd, r.bfs, r.tags, flood)
	for _, it := range got[:len(got)-1] {
		u, v := UnpackUV(it.B)
		inter = append(inter, InterEdge{U: u, V: v, FragU: it.C >> 31, FragV: it.C & low31})
	}
	last := got[len(got)-1]
	r.maxLoad, r.maxLoadWeight = last.C, last.D
	return inter, last.A, last.B == 1
}

// localMaxLoad returns the largest load(e)/w(e) over this node's live
// edges, counting its Part-1 fragment-tree edges (which the tree
// keeps) at one load more. An edge with w(e) ≤ 0 is absent; no edge at
// all gives 0/1.
func (r *runner) localMaxLoad(st *p1state) (int64, int64) {
	l, w := int64(0), int64(1)
	for p := 0; p < r.nd.Degree(); p++ {
		we := r.w(p)
		if we <= 0 {
			continue
		}
		le := r.load(p)
		if p == st.parentPort || slices.Contains(st.childPorts, p) {
			le++
		}
		l, w = maxRatio(l, w, le, we)
	}
	return l, w
}

// maxRatio returns the larger of the ratios l1/w1 and l2/w2, compared
// exactly (proto.MulLess).
func maxRatio(l1, w1, l2, w2 int64) (int64, int64) {
	if proto.MulLess(l1, w2, l2, w1) {
		return l2, w2
	}
	return l1, w1
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// upcast streams outer edges up the BFS tree. The smaller-ID endpoint
// of each reports it as the item A = load<<31|weight (both stay below
// 2^31 in every workload), B = packed endpoints, C = fragU<<31|fragV
// with U the reporter. Each node merges its own edges with its
// children's streams in key order and forwards an edge only when it
// joins two fragments its earlier forwards do not already connect, so
// every stream is sorted, no node forwards more than F−1 edges for F
// fragments, and the whole upcast takes O(D + F) rounds. Each stream
// ends in a marker counting the Part-1 fragment roots below it and
// carrying the largest load ratio below it (see localMaxLoad). Node 0
// returns the edges it kept, the fragment count and the ratio; every
// other node returns nil, 0, 0, 1.
func (r *runner) upcast(st *p1state) (forest []proto.Item, frags, maxLoad, maxLoadWeight int64) {
	nd, bfs := r.nd, r.bfs
	tag := r.tags.Next(1)
	var own []proto.Item
	for p := 0; p < nd.Degree(); p++ {
		if r.port[p] != portInner && nd.Peer(p) > nd.ID() {
			own = append(own, proto.Item{A: r.load(p)<<31 | r.w(p), B: PackUV(nd.ID(), nd.Peer(p)), C: st.fragID<<31 | r.peerFrag[p]})
		}
	}
	slices.SortFunc(own, func(a, b proto.Item) int {
		if upKey(a).Less(upKey(b)) {
			return -1
		}
		return 1
	})
	frags = b2i(st.parentPort < 0) // a Part-1 fragment has one root
	maxLoad, maxLoadWeight = r.localMaxLoad(st)
	// head[i] is child i's next unmerged item once have[i] is set.
	kids := bfs.ChildPorts
	head := make([]proto.Item, len(kids))
	have, ended := make([]bool, len(kids)), make([]bool, len(kids))
	var port int // one closure for the whole stream
	match := func(p int, m congest.Message) bool {
		return p == port && m.Tag == tag && (m.Kind == kindUpEdge || m.Kind == kindUpEnd)
	}
	joined := fragUnion{}
	for {
		// Every stream is sorted, so once each child's head is known the
		// least of them and own[0] is the next edge in key order.
		it, from, ok := proto.Item{}, -1, len(own) > 0
		if ok {
			it = own[0]
		}
		for i, c := range kids {
			if !have[i] && !ended[i] {
				port = c
				_, m := nd.Recv(match)
				head[i], have[i], ended[i] = proto.Item{A: m.A, B: m.B, C: m.C}, m.Kind == kindUpEdge, m.Kind == kindUpEnd
				if ended[i] {
					frags += m.A
					maxLoad, maxLoadWeight = maxRatio(maxLoad, maxLoadWeight, m.B, m.C)
				}
			}
			if have[i] && (!ok || upKey(head[i]).Less(upKey(it))) {
				it, from, ok = head[i], i, true
			}
		}
		if !ok {
			break
		}
		if from < 0 {
			own = own[1:]
		} else {
			have[from] = false
		}
		if !joined.union(it.C>>31, it.C&low31) {
			continue // closes a cycle with edges already forwarded
		}
		if bfs.Root {
			forest = append(forest, it)
			continue
		}
		r.upSent++
		nd.Send(bfs.ParentPort, congest.Message{Kind: kindUpEdge, Tag: tag, A: it.A, B: it.B, C: it.C})
	}
	if !bfs.Root {
		nd.Send(bfs.ParentPort, congest.Message{Kind: kindUpEnd, Tag: tag, A: frags, B: maxLoad, C: maxLoadWeight})
		return nil, 0, 0, 1
	}
	return forest, frags, maxLoad, maxLoadWeight
}

// root orients the MST in Õ(√n + D): the fragment tree is known to
// every node (InterEdges, from Part 2), so orientation between
// fragments is a local computation, and each fragment re-roots
// internally at its attachment node with one O(√n)-round adopt wave —
// the phase's only communication. Node 0's fragment roots at node 0.
func (r *runner) root(st *p1state, inter []InterEdge, rootFrag int64) *Result {
	nd := r.nd
	myFrag := st.fragID
	fragParent, attach := orientFragments(inter, rootFrag)
	internalRoot := graph.NodeID(0)
	if myFrag != rootFrag {
		internalRoot = attach[myFrag].inner
	}
	wave := proto.AdoptWave(nd, st.ports(), nd.ID() == internalRoot, r.tags)

	res := &Result{
		FragID:         myFrag,
		FragRootID:     internalRoot,
		FragParentPort: wave.ParentPort,
		FragChildPorts: append([]int(nil), wave.ChildPorts...),
		InterEdges:     inter,
		RootFrag:       rootFrag,
		FragParent:     fragParent,
		Connected:      true,
	}

	// Assemble the global tree ports.
	res.ParentPort = wave.ParentPort
	if nd.ID() == internalRoot && myFrag != rootFrag {
		res.ParentPort = nd.PortTo(attach[myFrag].outer)
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

// orientFragments builds parent pointers for the fragment tree rooted
// at rootFrag. Pure local computation on globally known data.
func orientFragments(inter []InterEdge, rootFrag int64) (map[int64]int64, map[int64]attachment) {
	adj := make(map[int64][]InterEdge)
	for _, ie := range inter {
		adj[ie.FragU] = append(adj[ie.FragU], ie)
		adj[ie.FragV] = append(adj[ie.FragV], ie)
	}
	fragParent := map[int64]int64{rootFrag: -1}
	attach := make(map[int64]attachment, len(inter))
	for queue := []int64{rootFrag}; len(queue) > 0; queue = queue[1:] {
		f := queue[0]
		for _, ie := range adj[f] {
			child, childInner, childOuter := ie.FragV, ie.V, ie.U
			if ie.FragV == f {
				child, childInner, childOuter = ie.FragU, ie.U, ie.V
			}
			if _, seen := fragParent[child]; seen {
				continue
			}
			fragParent[child] = f
			attach[child] = attachment{inner: childInner, outer: childOuter}
			queue = append(queue, child)
		}
	}
	return fragParent, attach
}

// fragUnion is a union-find over fragment IDs; an ID it does not hold
// is a root.
type fragUnion map[int64]int64

func (u fragUnion) find(x int64) int64 {
	for p, ok := u[x]; ok; p, ok = u[x] {
		if gp, ok := u[p]; ok {
			u[x] = gp // path halving
		}
		x = p
	}
	return x
}

// union joins the sets of a and b; it returns false if they already
// were one.
func (u fragUnion) union(a, b int64) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	u[ra] = rb
	return true
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

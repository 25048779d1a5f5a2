// Package proto implements the distributed building blocks the paper's
// pipeline is assembled from, as reusable CONGEST protocols over rooted
// tree overlays: BFS-tree construction, tree rooting (adopt waves),
// convergecast and broadcast of single words, pipelined gather/flood of
// item streams with end markers, and slot-pipelined keyed aggregation.
//
// Every primitive is event-driven: nodes learn completion from explicit
// end markers or exact message counts, never from global round numbers,
// so primitives compose sequentially without global synchronization.
// Each invocation draws fresh tags from the node program's Tags
// counter, so consecutive instances never confuse each other's traffic.
//
// Round costs (h = overlay height, k = item count): BuildBFS O(D);
// AdoptWave O(h); Converge/Broadcast O(h); Gather/Flood/AllGather
// O(h + k); KeyedSum O(h + k). These are exactly the costs the paper
// charges for its "upcast"/"broadcast"/"pipelined" steps.
package proto

import (
	"slices"
	"sort"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
)

// Message kinds used by this package. Values are package-scoped
// constants; other packages use their own kind ranges (see respect,
// mst) so cross-package traffic is distinguishable in traces.
const (
	kindExplore uint8 = 0x10 + iota // BFS expansion, A = distance
	kindClaim                       // BFS child claim
	kindDecline                     // BFS non-child notice
	kindAdopt                       // tree rooting wave, A = depth
	kindItem                        // stream item (payload = 4 words)
	kindEnd                         // stream end marker, A = item count sent
	kindSlot                        // keyed-sum slot, A = slot index, B = sum
)

// Overlay is one node's local view of a rooted tree: the port toward
// its parent (-1 at the root), the ports toward its children, and its
// depth. An overlay may span the whole network (BFS tree, spanning
// tree) or one fragment of a partition; all primitives work on either.
type Overlay struct {
	Root       bool
	ParentPort int
	ChildPorts []int
	Depth      int
}

// NewOverlay builds an overlay locally when the node already knows its
// parent port and child ports (e.g. after the MST module has oriented
// tree edges).
func NewOverlay(parentPort int, childPorts []int, depth int) *Overlay {
	ov := &Overlay{
		Root:       parentPort < 0,
		ParentPort: parentPort,
		ChildPorts: append([]int(nil), childPorts...),
		Depth:      depth,
	}
	sort.Ints(ov.ChildPorts)
	return ov
}

// BuildBFS constructs a breadth-first spanning tree of the whole
// network rooted at root, in O(D) rounds. Every node returns its
// overlay; ties between equidistant parents break toward the lowest
// port (hence lowest neighbor ID, by sorted adjacency). Exactly one
// message is consumed per incident edge, so no traffic is left over.
func BuildBFS(nd *congest.Node, root graph.NodeID, tags *Tags) *Overlay {
	tag := tags.Next(1)
	mark := nd.ID() == root // the root records the phase span for observability
	if mark {
		nd.Mark("begin:bfs")
	}
	ov := &Overlay{ParentPort: -1}
	responded := make([]bool, nd.Degree()) // ports we already answered/sent on
	if nd.ID() == root {
		ov.Root = true
		for p := 0; p < nd.Degree(); p++ {
			nd.Send(p, congest.Message{Kind: kindExplore, Tag: tag, A: 0})
		}
	} else {
		// Adopt the first explorer; same-round explorers are already
		// buffered, so drain them to pick the lowest port.
		explore := congest.MatchKindTag(kindExplore, tag)
		p, m := nd.Recv(explore)
		ov.ParentPort = p
		ov.Depth = int(m.A) + 1
		responded[p] = true
		for {
			q, _, ok := nd.TryRecv(explore)
			if !ok {
				break
			}
			responded[q] = true // same round, equidistant: not our child
			if q < ov.ParentPort {
				ov.ParentPort = q
			}
		}
		nd.Send(ov.ParentPort, congest.Message{Kind: kindClaim, Tag: tag})
		for p := 0; p < nd.Degree(); p++ {
			if p != ov.ParentPort && !responded[p] {
				nd.Send(p, congest.Message{Kind: kindExplore, Tag: tag, A: int64(ov.Depth)})
			} else if p != ov.ParentPort {
				// Equidistant neighbor: tell it we are not its child.
				nd.Send(p, congest.Message{Kind: kindDecline, Tag: tag})
			}
		}
	}
	// Consume exactly one closing message per remaining port: a CLAIM
	// (child), a DECLINE (a deeper neighbor that chose another parent),
	// or an EXPLORE (an equidistant neighbor; consumed, never answered —
	// our own explore to it closes its accounting symmetrically). Every
	// edge thus carries exactly one message each way and nothing is left
	// over.
	expect := nd.Degree()
	got := 0
	if !ov.Root {
		expect-- // parent port's explore was consumed during adoption
		for p := range responded {
			if responded[p] && p != ov.ParentPort {
				got++ // non-chosen parent candidate: explore already consumed
			}
		}
	}
	match := func(_ int, m congest.Message) bool {
		if m.Tag != tag {
			return false
		}
		return m.Kind == kindClaim || m.Kind == kindDecline || m.Kind == kindExplore
	}
	for got < expect {
		p, m := nd.Recv(match)
		got++
		if m.Kind == kindClaim {
			ov.ChildPorts = append(ov.ChildPorts, p)
		}
	}
	sort.Ints(ov.ChildPorts)
	if mark {
		nd.Mark("end:bfs")
	}
	return ov
}

// AdoptWave roots a known tree: every node knows which of its ports are
// tree edges (treePorts) and whether it is the root. The root floods an
// adopt message over tree edges; each node's parent is the port the
// wave arrived on and its children are all other tree ports. Takes
// O(tree depth) rounds; used inside fragments (depth O(√n)) and on
// small overlays, never on the full spanning tree.
func AdoptWave(nd *congest.Node, treePorts []int, isRoot bool, tags *Tags) *Overlay {
	tag := tags.Next(1)
	ov := &Overlay{ParentPort: -1, Root: isRoot}
	if isRoot {
		for _, p := range treePorts {
			nd.Send(p, congest.Message{Kind: kindAdopt, Tag: tag, A: 0})
			ov.ChildPorts = append(ov.ChildPorts, p)
		}
		sort.Ints(ov.ChildPorts)
		return ov
	}
	p, m := nd.Recv(func(p int, m congest.Message) bool {
		return m.Kind == kindAdopt && m.Tag == tag && slices.Contains(treePorts, p)
	})
	ov.ParentPort = p
	ov.Depth = int(m.A) + 1
	for _, q := range treePorts {
		if q != p {
			nd.Send(q, congest.Message{Kind: kindAdopt, Tag: tag, A: int64(ov.Depth)})
			ov.ChildPorts = append(ov.ChildPorts, q)
		}
	}
	sort.Ints(ov.ChildPorts)
	return ov
}

package respect

import (
	"sort"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/mst"
	"distmincut/internal/proto"
)

// Message kind for the bootstrap fragment exchange.
const kindBootFrag uint8 = 0x60

// Bootstrap builds a respect Input for an externally supplied rooted
// spanning tree and fragment assignment (e.g. from partition.Split):
// each node knows its tree parent/child ports and its fragment ID and
// fragment root. One neighbor exchange classifies ports as intra- or
// inter-fragment, and one AllGather publishes the O(√n) inter-fragment
// edges, from which the fragment tree orientation is a local
// computation — exactly the paper's Step 1, in O(√n + D) rounds.
//
// The orientation convention requires the tree to be rooted at node 0
// and each fragment root to be the fragment's topmost node.
func Bootstrap(nd *congest.Node, bfs *proto.Overlay, parentPort int, childPorts []int, fragID int64, tags *proto.Tags) *Input {
	in := &Input{
		ParentPort: parentPort,
		ChildPorts: append([]int(nil), childPorts...),
		FragID:     fragID,
		BFS:        bfs,
	}
	sort.Ints(in.ChildPorts)

	// Exchange fragment IDs over tree ports.
	tag := tags.Next(1)
	treePorts := append([]int(nil), in.ChildPorts...)
	if parentPort >= 0 {
		treePorts = append(treePorts, parentPort)
	}
	for _, p := range treePorts {
		nd.Send(p, congest.Message{Kind: kindBootFrag, Tag: tag, A: fragID})
	}
	peerFrag := make(map[int]int64, len(treePorts))
	inTree := make(map[int]bool, len(treePorts))
	for _, p := range treePorts {
		inTree[p] = true
	}
	for range treePorts {
		p, m := nd.Recv(func(p int, m congest.Message) bool {
			return m.Kind == kindBootFrag && m.Tag == tag && inTree[p]
		})
		peerFrag[p] = m.A
	}

	// Fragment-internal orientation.
	in.FragParentPort = -1
	if parentPort >= 0 && peerFrag[parentPort] == fragID {
		in.FragParentPort = parentPort
	}
	for _, p := range in.ChildPorts {
		if peerFrag[p] == fragID {
			in.FragChildPorts = append(in.FragChildPorts, p)
		}
	}

	// Publish inter-fragment edges: reported by the child-side
	// endpoint, which knows the orientation directly.
	var mine []proto.Item
	if parentPort >= 0 && peerFrag[parentPort] != fragID {
		mine = []proto.Item{{
			A: int64(nd.ID()),
			B: int64(nd.Peer(parentPort)),
			C: fragID,
			D: peerFrag[parentPort],
		}}
	}
	items := proto.AllGather(nd, bfs, tags, mine)
	inter := make([]mst.InterEdge, len(items))
	for i, it := range items {
		inter[i] = mst.InterEdge{U: graph.NodeID(it.A), V: graph.NodeID(it.B), FragU: it.C, FragV: it.D}
	}
	// The fragment of node 0 (the BFS and tree root) is the root
	// fragment.
	in.RootFrag = proto.BroadcastItem(nd, bfs, tags, proto.Item{A: fragID}).A
	in.Frags = mst.NewFragTree(inter, in.RootFrag)
	return in
}

// Package respect implements the paper's core contribution (Section 2,
// Theorem 2.1): given a rooted spanning tree T of the network, already
// partitioned into O(√n) fragments of Õ(√n) diameter, make every node
// v learn C(v↓) — the weight of the cut that separates v's subtree from
// the rest — and find min_{v≠root} C(v↓), all in Õ(√n + D) rounds.
//
// The algorithm follows the paper's five steps:
//
//  1. The fragment tree T_F is known to every node (delivered by the
//     MST construction, per the paper's footnote 1, or bootstrapped by
//     one AllGather for externally supplied trees).
//  2. Every node v learns A(v), its ancestors within its own and its
//     parent fragment (ordered nearest-first by structural streaming),
//     F(v), the set of fragments fully inside v↓, and F(u) for every
//     u ∈ A(v) via filtered downward streams.
//  3. δ↓(v) = Σ_{u∈v↓} δ(u) from an intra-fragment subtree sum plus
//     globally gathered fragment totals. Lemma 2.2 needs δ↓ only next to
//     ρ↓, so this step rides step 5's ρ↓ pass: one fragment convergecast
//     of (δ, ρ) and one AllGather of (fragment, δ total, ρ total).
//  4. Merging nodes (≥2 child directions containing whole fragments)
//     are detected locally. Each skeleton-tree T'_F node (fragment
//     roots, merging nodes, node 0) finds its T'_F parent locally in
//     A(v) from the step-2c increments, and one AllGather of
//     (node, T'_F parent, merging bit) makes T'_F and the merging list
//     global knowledge.
//  5. Every edge's endpoint LCA is computed by the paper's three-case
//     exchange over the edge itself (on a same-fragment edge only the
//     larger-ID endpoint sends its ancestor chain, to the smaller-ID
//     endpoint, which holds the edge's token); the per-LCA weights ρ(v)
//     are aggregated by a keyed global sum (type i, skipped when no node
//     is merging) and a pipelined intra-fragment ancestor sum (type ii);
//     then δ↓ and ρ↓ come out of one pass (step 3's machinery), and
//     C(v↓) = δ↓(v) − 2ρ↓(v) (Lemma 2.2).
package respect

import (
	"sort"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/mst"
	"distmincut/internal/proto"
)

// Message kinds (0x50 range).
const (
	kindFragList uint8 = 0x50 + iota // step 2a: child-fragment upcast item, A=fragID
	kindFragEnd                      // step 2a: end marker
	kindAncID                        // step 2b: ancestor ID stream, A=node ID, B=crossed
	kindAncEnd                       // step 2b: end marker
	kindFPair                        // step 2c: (ancestor, fragment) pair, A=node, B=frag, C=crossed
	kindFEnd                         // step 2c: end marker
	kindLCA1                         // step 5a: first exchange, A=fragID
	kindChain                        // step 5a case 1: ancestor chain item, A=node ID
	kindChainEnd                     // step 5a case 1: end marker
	kindLCA2                         // step 5a: second exchange, A=lowest T'F ancestor, B=case-3 z or -1
	kindSlotFrag                     // step 5b type ii: ancestor-sum slot, A=index, B=value
)

// Input is one node's local view of the rooted, fragmented spanning
// tree. Build it with FromMST (the usual path) or Bootstrap (for
// externally supplied trees + partitions).
type Input struct {
	// Tree orientation (rooted at node 0).
	ParentPort int
	ChildPorts []int
	// Fragment-internal orientation.
	FragID         int64
	FragParentPort int
	FragChildPorts []int
	// Global knowledge: the fragment tree.
	InterEdges []mst.InterEdge
	FragParent map[int64]int64
	RootFrag   int64
	// BFS overlay for global collectives.
	BFS *proto.Overlay
	// Weight optionally overrides per-port edge weights; weight(p) <= 0
	// means the edge at port p is absent (Karger-sampled views). Nil
	// uses the underlying edge weights. The tree and fragments must
	// have been built under the same view.
	Weight func(port int) int64
	// MaxLoad/MaxLoadWeight is the largest packing load(e)/w(e) over
	// this node's live edges, in lowest terms (see packing.Pack). Run
	// carries the global maximum to every node in the same waves that
	// find the best cut, at no extra rounds. A zero weight counts as
	// the ratio 0.
	MaxLoad, MaxLoadWeight int64
}

// FromMST adapts the distributed MST result into a respect input.
func FromMST(res *mst.Result, bfs *proto.Overlay) *Input {
	return &Input{
		ParentPort:     res.ParentPort,
		ChildPorts:     res.ChildPorts,
		FragID:         res.FragID,
		FragParentPort: res.FragParentPort,
		FragChildPorts: res.FragChildPorts,
		InterEdges:     res.InterEdges,
		FragParent:     res.FragParent,
		RootFrag:       res.RootFrag,
		BFS:            bfs,
	}
}

// Output is one node's result.
type Output struct {
	// CutBelow is C(v↓) for this node (0 at the root by convention).
	CutBelow int64
	// Best is min_{v≠root} C(v↓); BestNode the smallest minimizer.
	// Identical at every node.
	Best     int64
	BestNode graph.NodeID
	// MaxLoad/MaxLoadWeight is the largest Input ratio over all nodes,
	// in lowest terms. Identical at every node.
	MaxLoad, MaxLoadWeight int64
	// Intermediate quantities, exposed for verification and reuse.
	Delta        int64
	DeltaDown    int64
	Rho          int64
	RhoDown      int64
	Ancestors    []graph.NodeID // A(v): self first, then nearest to farthest
	FragSet      map[int64]bool // F(v)
	Merging      bool
	MergingNodes []graph.NodeID                // global sorted list
	TPrime       map[graph.NodeID]graph.NodeID // T'F: node -> parent (root maps to -1)
}

// Run executes the five steps.
func Run(nd *congest.Node, in *Input, tags *proto.Tags) *Output {
	r := &respectRun{nd: nd, in: in, tags: tags}
	r.fragOv = proto.NewOverlay(in.FragParentPort, in.FragChildPorts, 0)
	r.treePortSet = make(map[int]bool, len(in.ChildPorts)+1)
	for _, p := range in.ChildPorts {
		r.treePortSet[p] = true
	}
	if in.ParentPort >= 0 {
		r.treePortSet[in.ParentPort] = true
	}
	r.fragDesc = fragDescendants(in.FragParent)
	r.cross = r.interChildPorts()

	out := &Output{Delta: r.weightedDegree()}
	// Node 0 records one span per step for observability; step 3 rides
	// step 5, and together the spans tile the sweep.
	mark := nd.ID() == 0
	if mark {
		nd.Mark("begin:respect:step2")
	}
	r.step2a(out)
	r.step2b(out)
	r.step2c(out)
	if mark {
		nd.Mark("end:respect:step2")
		nd.Mark("begin:respect:step4")
	}
	r.step4(out)
	if mark {
		nd.Mark("end:respect:step4")
		nd.Mark("begin:respect:step5")
	}
	r.step5(out)
	if mark {
		nd.Mark("end:respect:step5")
		nd.Mark("begin:respect:finish")
	}
	r.finish(out)
	if mark {
		nd.Mark("end:respect:finish")
	}
	return out
}

type respectRun struct {
	nd          *congest.Node
	in          *Input
	tags        *proto.Tags
	fragOv      *proto.Overlay
	treePortSet map[int]bool
	// cross lists the tree-child ports into child fragments.
	cross []int

	// fragDesc[f] = all fragments in f's subtree of the fragment tree,
	// including f itself. Local computation on global knowledge.
	fragDesc map[int64][]int64

	// step 2a results.
	directChildFrags []int64      // fragments attached directly below me
	childDirHasFrag  map[int]bool // tree child port -> subtree contains a fragment
	// step 2b result: the prefix of Ancestors within my own fragment
	// (self first).
	sameFragAnc []graph.NodeID
	// step 2c result: fragment sets of my in-fragment ancestors, as
	// increments along the chain (see step2c).
	fragOfAncestor map[graph.NodeID]map[int64]bool
	// step 5 working state.
	lowestTPrime graph.NodeID
}

// w returns the effective weight of the edge at port p under the
// (possibly sampled) view; <= 0 means absent.
func (r *respectRun) w(port int) int64 {
	if r.in.Weight == nil {
		return r.nd.EdgeWeight(port)
	}
	return r.in.Weight(port)
}

func (r *respectRun) weightedDegree() int64 {
	var s int64
	for p := 0; p < r.nd.Degree(); p++ {
		if w := r.w(p); w > 0 {
			s += w
		}
	}
	return s
}

// fragDescendants computes, for every fragment, the fragments of its
// subtree in the fragment tree (inclusive).
func fragDescendants(fragParent map[int64]int64) map[int64][]int64 {
	children := make(map[int64][]int64, len(fragParent))
	var root int64 = -1
	for f, p := range fragParent {
		if p == -1 {
			root = f
			continue
		}
		children[p] = append(children[p], f)
	}
	for _, c := range children {
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	}
	desc := make(map[int64][]int64, len(fragParent))
	// Post-order accumulation via explicit stack.
	type frame struct {
		f    int64
		next int
	}
	if root == -1 {
		return desc
	}
	stack := []frame{{f: root}}
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		kids := children[fr.f]
		if fr.next < len(kids) {
			c := kids[fr.next]
			fr.next++
			stack = append(stack, frame{f: c})
			continue
		}
		all := []int64{fr.f}
		for _, c := range kids {
			all = append(all, desc[c]...)
		}
		desc[fr.f] = all
		stack = stack[:len(stack)-1]
	}
	return desc
}

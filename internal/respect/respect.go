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
//     exchange over the edge itself. On a same-fragment edge the first
//     exchange carries each endpoint's preorder number within the
//     fragment, and the smaller-ID endpoint, which holds the edge's
//     token, takes its deepest in-fragment ancestor whose preorder
//     interval (sizes ride step 2a's upcast, offsets step 2b's stream)
//     contains the peer's number; the per-LCA weights ρ(v)
//     are aggregated by a keyed global sum (type i, skipped when no node
//     is merging) and a pipelined intra-fragment ancestor sum (type ii);
//     then δ↓ and ρ↓ come out of one pass (step 3's machinery), and
//     C(v↓) = δ↓(v) − 2ρ↓(v) (Lemma 2.2).
package respect

import (
	"cmp"
	"slices"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/mst"
	"distmincut/internal/proto"
)

// Message kinds (0x50 range).
const (
	kindFragList uint8 = 0x50 + iota // step 2a: child-fragment upcast item, A=fragID
	kindFragEnd                      // step 2a: end marker, A=sender's in-fragment subtree size
	kindAncID                        // step 2b: ancestor ID stream, A=node ID, B=crossed, C=preorder offset under A of the next chain node, D=A's in-fragment subtree size
	kindAncEnd                       // step 2b: end marker
	kindFPair                        // step 2c: (ancestor, fragment) pair, A=node, B=frag, C=crossed
	kindFEnd                         // step 2c: end marker
	kindLCA1                         // step 5a: first exchange, A=fragID, B=sender's preorder number in its fragment
	kindLCA2                         // step 5a: second exchange, A=lowest T'F ancestor, B=case-3 z or -1
	kindSlotFrag                     // step 5b type ii: ancestor-sum slot, A=index, B=value
)

// Input is one node's local view of the rooted, fragmented spanning
// tree. Build it with FromMST (the usual path) or Bootstrap (for
// externally supplied trees + partitions).
type Input struct {
	// Tree orientation (rooted at node 0). ChildPorts is ascending.
	ParentPort int
	ChildPorts []int
	// Fragment-internal orientation. FragChildPorts is ascending.
	FragID         int64
	FragParentPort int
	FragChildPorts []int
	// Global knowledge: the fragment tree.
	Frags    mst.FragTree
	RootFrag int64
	// BFS overlay for global collectives.
	BFS *proto.Overlay
	// Weight optionally overrides per-port edge weights; weight(p) <= 0
	// means the edge at port p is absent (Karger-sampled views). Nil
	// uses the underlying edge weights. The tree and fragments must
	// have been built under the same view.
	Weight func(port int) int64
}

// FromMST adapts the distributed MST result into a respect input.
func FromMST(res *mst.Result, bfs *proto.Overlay) *Input {
	return &Input{
		ParentPort:     res.ParentPort,
		ChildPorts:     res.ChildPorts,
		FragID:         res.FragID,
		FragParentPort: res.FragParentPort,
		FragChildPorts: res.FragChildPorts,
		Frags:          res.Frags,
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
	// Intermediate quantities, exposed for verification and reuse.
	Delta        int64
	DeltaDown    int64
	Rho          int64
	RhoDown      int64
	Ancestors    []graph.NodeID // A(v): self first, then nearest to farthest
	FragSet      []int64        // F(v), in ID order
	Merging      bool
	MergingNodes []graph.NodeID // global sorted list
	TPrime       TPrime         // T'F, identical at every node
}

// HasFrag reports whether fragment f is in F(v).
func (o *Output) HasFrag(f int64) bool {
	_, ok := slices.BinarySearch(o.FragSet, f)
	return ok
}

// TPrime is the skeleton tree T'_F: its nodes in ID order, each with its
// T'_F parent.
type TPrime []tprimeNode

type tprimeNode struct {
	v, parent graph.NodeID
}

// Parent returns u's T'_F parent (-1 at the root, node 0) and whether u
// is a T'_F node at all.
func (t TPrime) Parent(u graph.NodeID) (graph.NodeID, bool) {
	i, ok := slices.BinarySearchFunc(t, u, func(n tprimeNode, u graph.NodeID) int { return cmp.Compare(n.v, u) })
	if !ok {
		return -1, false
	}
	return t[i].parent, true
}

// MaxTags bounds the tags one Run draws: three for step 2, an
// AllGather in step 4, and in step 5 the LCA exchanges, the keyed sum,
// the ancestor sum, the fragment convergecast and the totals'
// AllGather, then finish's convergecast and broadcast. A caller that
// runs the sweep beside another protocol hands it a Sub block of this
// size.
const MaxTags = 16

// Run executes the five steps.
func Run(nd *congest.Node, in *Input, tags *proto.Tags) *Output {
	return newRespectRun(nd, in, tags).run()
}

// newRespectRun sets up one node's run state from its local view.
func newRespectRun(nd *congest.Node, in *Input, tags *proto.Tags) *respectRun {
	r := &respectRun{nd: nd, in: in, tags: tags}
	r.fragOv = proto.NewOverlay(in.FragParentPort, in.FragChildPorts, 0)
	r.cross = r.interChildPorts()
	return r
}

// run executes the five steps.
func (r *respectRun) run() *Output {
	nd := r.nd
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
	nd     *congest.Node
	in     *Input
	tags   *proto.Tags
	fragOv *proto.Overlay
	// cross lists the tree-child ports into child fragments.
	cross []int

	// step 2a results.
	fragDirs int     // tree child directions whose subtree contains a fragment
	subSize  int64   // my in-fragment subtree size
	childOff []int64 // per FragChildPorts entry: that child's preorder offset below me
	// step 2b results: the prefix of Ancestors within my own fragment
	// (self first), and each entry's preorder interval
	// [ancPre[k], ancPre[k]+ancSize[k]) within the fragment.
	sameFragAnc     []graph.NodeID
	ancPre, ancSize []int64
	// step 2c result: fragment sets of my ancestors, as increments
	// along the chain (see step2c), sorted by (u, f).
	fragOfAncestor []ancFrag
	// step 5 working state.
	lowestTPrime graph.NodeID
}

// ancFrag is one step-2c increment pair: fragment f is in F(u).
type ancFrag struct {
	u graph.NodeID
	f int64
}

func compareAncFrag(a, b ancFrag) int {
	if c := cmp.Compare(a.u, b.u); c != 0 {
		return c
	}
	return cmp.Compare(a.f, b.f)
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

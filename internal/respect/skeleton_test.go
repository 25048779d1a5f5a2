package respect

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/partition"
	"distmincut/internal/proto"
	"distmincut/internal/tree"
)

// checkStep4 runs Bootstrap + Run on an externally partitioned tree and
// cross-checks the distributed Step 4 (merging nodes, T'_F with each
// node's locally found parent) against the sequential reference
// (partition.BuildSkeleton) at every node. It returns the reference.
func checkStep4(t *testing.T, g *graph.Graph, tr *tree.Tree, d *partition.Decomposition, seed int64) *partition.Skeleton {
	t.Helper()
	sk := partition.BuildSkeleton(tr, d)
	parentPorts := make([]int, g.N())
	childPorts := make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		nv := graph.NodeID(v)
		parentPorts[v] = -1
		if tr.Parent(nv) >= 0 {
			parentPorts[v] = g.PortOf(nv, tr.ParentEdge(nv))
		}
		for _, c := range tr.Children(nv) {
			childPorts[v] = append(childPorts[v], g.PortOf(nv, tr.ParentEdge(c)))
		}
	}
	var mu sync.Mutex
	outs := make([]*Output, g.N())
	_, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
		tags := new(proto.Tags)
		bfs := proto.BuildBFS(nd, 0, tags)
		in := Bootstrap(nd, bfs, parentPorts[nd.ID()], childPorts[nd.ID()], d.FragOf[nd.ID()], tags)
		out := Run(nd, in, tags)
		mu.Lock()
		outs[nd.ID()] = out
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := sk.Merging
	inList := map[graph.NodeID]bool{}
	for _, m := range want {
		inList[m] = true
	}
	for v, o := range outs {
		// Merging node lists must coincide, in order.
		if fmt.Sprint(o.MergingNodes) != fmt.Sprint(want) {
			t.Fatalf("node %d: merging nodes %v, sequential %v", v, o.MergingNodes, want)
		}
		// T'_F parent maps must coincide exactly.
		if len(o.TPrime) != len(sk.Parent) {
			t.Fatalf("node %d: |T'F| = %d distributed, %d sequential (%v vs %v)", v, len(o.TPrime), len(sk.Parent), o.TPrime, sk.Parent)
		}
		for u, p := range sk.Parent {
			if gp, ok := o.TPrime.Parent(u); !ok || gp != p {
				t.Fatalf("node %d: T'F parent of %d = %d (present %v), want %d", v, u, gp, ok, p)
			}
		}
		// Per-node merging flags agree with the list.
		if o.Merging != inList[graph.NodeID(v)] {
			t.Fatalf("node %d merging flag %v, list %v", v, o.Merging, inList[graph.NodeID(v)])
		}
	}
	return sk
}

// splitAt is the decomposition of tr whose fragment roots are tr's root
// and roots; every other node joins its parent's fragment.
func splitAt(tr *tree.Tree, roots ...graph.NodeID) *partition.Decomposition {
	n := tr.N()
	isRoot := map[graph.NodeID]bool{tr.Root(): true}
	for _, r := range roots {
		isRoot[r] = true
	}
	d := &partition.Decomposition{FragOf: make([]int64, n), RootOf: make([]graph.NodeID, n)}
	// Each node belongs to its nearest root at or above it.
	for v := 0; v < n; v++ {
		u := graph.NodeID(v)
		for !isRoot[u] {
			u = tr.Parent(u)
		}
		d.RootOf[v], d.FragOf[v] = u, int64(u)
		if u == graph.NodeID(v) {
			d.Roots = append(d.Roots, u)
		}
	}
	return d
}

// caterpillar is a spine 0..spine-1 (a path) where spine node i carries
// leaves spine+2i and spine+2i+1.
func caterpillar(spine int) *graph.Graph {
	g := graph.New(3 * spine)
	for i := 1; i < spine; i++ {
		g.MustAddEdge(graph.NodeID(i-1), graph.NodeID(i), 1)
	}
	for i := 0; i < spine; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(spine+2*i), 1)
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(spine+2*i+1), 1)
	}
	g.SortAdjacency()
	return g
}

func mustTree(t *testing.T, g *graph.Graph) *tree.Tree {
	t.Helper()
	tr, err := tree.FromGraphTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestStep4MatchesSequentialSkeleton(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		g := graph.GNP(60, 0.1, seed)
		parentArr, parentEdge := graph.RandomSpanningTree(g, 0, seed+3)
		tr, err := tree.New(0, parentArr, parentEdge)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("gnp-%d", seed), func(t *testing.T) {
			checkStep4(t, g, tr, partition.Split(tr, 0), seed)
		})
	}
}

// TestStep4LocalParentOnShapedTrees covers the cases the local T'_F
// parent rule must get right: fragments attached at non-merging nodes,
// fragment roots whose T'_F parent lies in the parent fragment (their
// parent's step-2c increment holds their own fragment), and a merging
// global root.
func TestStep4LocalParentOnShapedTrees(t *testing.T) {
	t.Run("path-split", func(t *testing.T) {
		g := graph.Path(30)
		tr := mustTree(t, g)
		sk := checkStep4(t, g, tr, partition.Split(tr, 0), 1)
		if len(sk.Merging) != 0 || len(sk.Parent) < 4 {
			t.Fatalf("path: want a chain of fragments and no merging node, got %v, %v", sk.Merging, sk.Parent)
		}
	})
	t.Run("caterpillar", func(t *testing.T) {
		// Spine 0..9, leaves 10..29. Fragments rooted at spine node 5,
		// at both leaves of spine node 2 (14, 15) and at a leaf of
		// spine node 7 (24). Spine node 2 merges three directions;
		// fragment 5 hangs off non-merging spine node 4 and its T'_F
		// parent is 2, in the root fragment; fragment 24 hangs off
		// non-merging spine node 7 inside fragment 5.
		g := caterpillar(10)
		tr := mustTree(t, g)
		sk := checkStep4(t, g, tr, splitAt(tr, 5, 14, 15, 24), 2)
		want := map[graph.NodeID]graph.NodeID{0: -1, 2: 0, 5: 2, 14: 2, 15: 2, 24: 5}
		if fmt.Sprint(sk.Parent) != fmt.Sprint(want) || fmt.Sprint(sk.Merging) != "[2]" {
			t.Fatalf("caterpillar skeleton %v merging %v, want %v and [2]", sk.Parent, sk.Merging, want)
		}
	})
	t.Run("caterpillar-split", func(t *testing.T) {
		g := caterpillar(12)
		tr := mustTree(t, g)
		checkStep4(t, g, tr, partition.Split(tr, 4), 3)
	})
	t.Run("star-merging-root", func(t *testing.T) {
		g := graph.Star(20)
		tr := mustTree(t, g)
		sk := checkStep4(t, g, tr, splitAt(tr, 3, 7, 11), 4)
		if fmt.Sprint(sk.Merging) != "[0]" {
			t.Fatalf("star: merging %v, want [0]", sk.Merging)
		}
	})
	t.Run("star-one-leaf", func(t *testing.T) {
		g := graph.Star(20)
		tr := mustTree(t, g)
		sk := checkStep4(t, g, tr, splitAt(tr, 9), 5)
		if len(sk.Merging) != 0 || len(sk.Parent) != 2 {
			t.Fatalf("star: skeleton %v merging %v, want {0, 9} and none", sk.Parent, sk.Merging)
		}
	})
}

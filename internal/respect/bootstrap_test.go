package respect

import (
	"context"
	"sync"
	"testing"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/partition"
	"distmincut/internal/proto"
	"distmincut/internal/tree"
	"distmincut/internal/verify"
)

// runOnTree exercises Theorem 2.1 on an arbitrary externally supplied
// spanning tree: the test computes the tree and its partition
// centrally, hands every node only its local view, and lets Bootstrap
// reconstruct the global fragment knowledge distributedly.
func runOnTree(t *testing.T, g *graph.Graph, tr *tree.Tree, s int, seed int64) []*Output {
	t.Helper()
	if err := verify.SpanningTreeOf(g, tr); err != nil {
		t.Fatal(err)
	}
	d := partition.Split(tr, s)
	if err := partition.Validate(tr, d); err != nil {
		t.Fatal(err)
	}
	outs, _ := runBootstrap(t, g, tr, d.FragOf)
	return outs
}

// runBootstrap runs Bootstrap and Run on tr with the fragment
// assignment fragOf (connected fragments, each named by its topmost
// node) and returns every node's output and run state.
func runBootstrap(t *testing.T, g *graph.Graph, tr *tree.Tree, fragOf []int64) ([]*Output, []*respectRun) {
	t.Helper()
	// Local views.
	parentPorts := make([]int, g.N())
	childPorts := make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		nv := graph.NodeID(v)
		parentPorts[v] = -1
		if p := tr.Parent(nv); p >= 0 {
			parentPorts[v] = g.PortOf(nv, tr.ParentEdge(nv))
		}
		for _, c := range tr.Children(nv) {
			childPorts[v] = append(childPorts[v], g.PortOf(nv, tr.ParentEdge(c)))
		}
	}
	var mu sync.Mutex
	outs := make([]*Output, g.N())
	runs := make([]*respectRun, g.N())
	stats, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
		tags := new(proto.Tags)
		bfs := proto.BuildBFS(nd, 0, tags)
		in := Bootstrap(nd, bfs, parentPorts[nd.ID()], childPorts[nd.ID()], fragOf[nd.ID()], tags)
		r := newRespectRun(nd, in, tags)
		out := r.run()
		mu.Lock()
		outs[nd.ID()], runs[nd.ID()] = out, r
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Leftover != 0 {
		t.Fatalf("left %d unconsumed messages", stats.Leftover)
	}
	return outs, runs
}

func TestTheorem21OnArbitraryTrees(t *testing.T) {
	type testcase struct {
		g    *graph.Graph
		mk   func(g *graph.Graph) *tree.Tree
		name string
	}
	bfsTree := func(g *graph.Graph) *tree.Tree {
		_, parent := graph.BFS(g, 0)
		parentEdge := make([]int, g.N())
		for v := 0; v < g.N(); v++ {
			parentEdge[v] = -1
			if parent[v] >= 0 {
				for _, h := range g.Adj(graph.NodeID(v)) {
					if h.Peer == parent[v] {
						parentEdge[v] = h.EdgeID
					}
				}
			}
		}
		tr, err := tree.New(0, parent, parentEdge)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	randomTree := func(seed int64) func(g *graph.Graph) *tree.Tree {
		return func(g *graph.Graph) *tree.Tree {
			parent, parentEdge := graph.RandomSpanningTree(g, 0, seed)
			tr, err := tree.New(0, parent, parentEdge)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
	}
	cases := []testcase{
		{graph.GNP(50, 0.12, 3), bfsTree, "gnp-bfs"},
		{graph.GNP(50, 0.12, 3), randomTree(7), "gnp-random"},
		{graph.AssignWeights(graph.GNP(40, 0.2, 4), 1, 30, 5), randomTree(8), "weighted-random"},
		{graph.Cycle(40), bfsTree, "cycle-bfs"},       // BFS tree of a cycle is a double path
		{graph.Complete(14), randomTree(9), "clique"}, // deep random tree on a dense graph
		{graph.Grid(6, 6), randomTree(10), "grid"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.mk(tc.g)
			outs := runOnTree(t, tc.g, tr, 0, 21)
			q := verify.OneRespectOracle(tc.g, tr)
			for v := 0; v < tc.g.N(); v++ {
				if outs[v].CutBelow != q.Cut[v] {
					t.Fatalf("node %d: C(v↓)=%d, oracle %d", v, outs[v].CutBelow, q.Cut[v])
				}
			}
			wantBest, wantNode := verify.BestOneRespect(q, tr)
			if outs[0].Best != wantBest || outs[0].BestNode != wantNode {
				t.Fatalf("best (%d,%d), oracle (%d,%d)", outs[0].Best, outs[0].BestNode, wantBest, wantNode)
			}
		})
	}
}

// TestPathologicalPathTree: a Hamiltonian-path spanning tree has depth
// n-1; the fragment machinery must still deliver the right answer (and
// the rounds must stay far below n·depth).
func TestPathologicalPathTree(t *testing.T) {
	// Build a cycle plus chords; spanning tree = the Hamiltonian path.
	g := graph.Cycle(60)
	tr, err := tree.FromGraphTree(pathSubtree(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reattach edge IDs of g to the path tree.
	parents := make([]graph.NodeID, g.N())
	parentEdge := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		parents[v] = tr.Parent(graph.NodeID(v))
		parentEdge[v] = -1
		if parents[v] >= 0 {
			for _, h := range g.Adj(graph.NodeID(v)) {
				if h.Peer == parents[v] {
					parentEdge[v] = h.EdgeID
				}
			}
		}
	}
	tr2, err := tree.New(0, parents, parentEdge)
	if err != nil {
		t.Fatal(err)
	}
	outs := runOnTree(t, g, tr2, 0, 5)
	q := verify.OneRespectOracle(g, tr2)
	for v := 0; v < g.N(); v++ {
		if outs[v].CutBelow != q.Cut[v] {
			t.Fatalf("node %d: C(v↓)=%d, oracle %d", v, outs[v].CutBelow, q.Cut[v])
		}
	}
}

// pathSubtree returns the path 0-1-...-n-1 as a graph (the cycle minus
// its closing edge).
func pathSubtree(g *graph.Graph) *graph.Graph {
	sub := graph.New(g.N())
	for i := 0; i+1 < g.N(); i++ {
		sub.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	sub.SortAdjacency()
	return sub
}

package mst

import (
	"context"
	"sync"
	"testing"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/proto"
)

// TestRunWeightedForest: a weight view that splits the graph must
// yield a consistent rooted spanning FOREST with Connected=false —
// the regime Karger-sampled skeletons can put the pipeline in.
func TestRunWeightedForest(t *testing.T) {
	// Two cliques joined by a single bridge; the view erases the bridge.
	g := graph.Barbell(8, 0)
	var bridgeID int
	found := false
	for _, e := range g.Edges() {
		if (e.U < 8) != (e.V < 8) {
			bridgeID = e.ID
			found = true
		}
	}
	if !found {
		t.Fatal("no bridge in barbell")
	}
	var mu sync.Mutex
	results := make([]*Result, g.N())
	stats, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
		tags := new(proto.Tags)
		bfs := proto.BuildBFS(nd, 0, tags)
		weight := func(p int) int64 {
			if nd.EdgeID(p) == bridgeID {
				return 0
			}
			return nd.EdgeWeight(p)
		}
		res := RunWeighted(nd, bfs, nil, weight, 0, 3, tags)
		mu.Lock()
		results[nd.ID()] = res
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Leftover != 0 {
		t.Fatalf("forest run left %d messages", stats.Leftover)
	}
	roots := 0
	for v, r := range results {
		if r.Connected {
			t.Fatalf("node %d believes the view is connected", v)
		}
		if r.ParentPort == -1 {
			roots++
			continue
		}
		// Parent edges must never use the erased bridge.
		peer := g.Adj(graph.NodeID(v))[r.ParentPort].Peer
		if (graph.NodeID(v) < 8) != (peer < 8) {
			t.Fatalf("node %d parent crosses the erased bridge", v)
		}
	}
	if roots != 2 {
		t.Fatalf("forest has %d roots, want 2 (one per component)", roots)
	}
	// Tree links per component: 7 each.
	links := 0
	for _, r := range results {
		links += len(r.ChildPorts)
	}
	if links != g.N()-2 {
		t.Fatalf("forest has %d child links, want %d", links, g.N()-2)
	}
	// All nodes agree on the census.
	for v := 1; v < g.N(); v++ {
		if len(results[v].AllFrags) != len(results[0].AllFrags) {
			t.Fatalf("census disagreement at node %d", v)
		}
	}
}

// TestRunWeightedReweightedMST: a weight view that reverses edge
// preference must change the chosen tree accordingly (checked against
// Kruskal on the reweighted graph).
func TestRunWeightedReweightedMST(t *testing.T) {
	g := graph.AssignWeights(graph.GNP(40, 0.2, 5), 1, 100, 6)
	// View: invert weights (101 - w), keeping them positive.
	view := make([]int64, g.M())
	for i, e := range g.Edges() {
		view[i] = 101 - e.W
	}
	var mu sync.Mutex
	gotSet := map[int64]bool{}
	_, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
		tags := new(proto.Tags)
		bfs := proto.BuildBFS(nd, 0, tags)
		res := RunWeighted(nd, bfs, nil, func(p int) int64 { return view[nd.EdgeID(p)] }, 0, 7, tags)
		mu.Lock()
		defer mu.Unlock()
		if res.ParentPort >= 0 {
			gotSet[PackUV(nd.ID(), nd.Peer(res.ParentPort))] = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := g.Reweight(view)
	h.SortAdjacency()
	want, err := Kruskal(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSet) != len(want) {
		t.Fatalf("tree sizes differ: %d vs %d", len(gotSet), len(want))
	}
	for _, id := range want {
		e := h.Edge(id)
		if !gotSet[PackUV(e.U, e.V)] {
			t.Fatalf("reweighted MST edge {%d,%d} missing from distributed tree", e.U, e.V)
		}
	}
}

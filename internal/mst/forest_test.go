package mst

import (
	"context"
	"sync"
	"testing"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/proto"
)

// TestRunWeightedForest: a weight view that splits the graph — the
// regime Karger-sampled skeletons can put the pipeline in — must make
// every node report Connected=false, with no message left unconsumed.
func TestRunWeightedForest(t *testing.T) {
	// Two cliques joined by a single bridge; the view erases the bridge.
	g := graph.Barbell(8, 0)
	view := make([]int64, g.M())
	bridges := 0
	for i, e := range g.Edges() {
		if (e.U < 8) != (e.V < 8) {
			bridges++
			continue
		}
		view[i] = e.W
	}
	if bridges != 1 {
		t.Fatalf("barbell has %d bridges, want 1", bridges)
	}
	for v, r := range collectWeighted(t, g, nil, view, 3) {
		if r.Connected {
			t.Fatalf("node %d believes the view is connected", v)
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

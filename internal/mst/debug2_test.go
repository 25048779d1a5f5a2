package mst

import (
	"sync"
	"testing"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/proto"
)

// TestDebugWeightedMismatch localizes where a non-MST edge enters the
// distributed tree on the failing weighted workload.
func TestDebugWeightedMismatch(t *testing.T) {
	g := graph.GNP(50, 0.2, 9)
	loads := make([]int64, g.M())
	for i := range loads {
		loads[i] = int64(i % 5)
	}
	var mu sync.Mutex
	results := make([]*Result, g.N())
	_, err := congest.Run(g, congest.Options{Seed: 13}, func(nd *congest.Node) {
		tags := new(proto.Tags)
		bfs := proto.BuildBFS(nd, 0, tags)
		local := make(map[int]int64)
		for p := 0; p < nd.Degree(); p++ {
			local[nd.EdgeID(p)] = loads[nd.EdgeID(p)]
		}
		res := Run(nd, bfs, local, 0, tags)
		mu.Lock()
		results[nd.ID()] = res
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Kruskal(g, loads)
	if err != nil {
		t.Fatal(err)
	}
	wantSet := make(map[int64]bool, len(want))
	for _, id := range want {
		e := g.Edge(id)
		wantSet[PackUV(e.U, e.V)] = true
	}
	for v, r := range results {
		if r.ParentPort < 0 {
			continue
		}
		peer := g.Adj(graph.NodeID(v))[r.ParentPort].Peer
		uv := PackUV(graph.NodeID(v), peer)
		if !wantSet[uv] {
			// Is it an inter-fragment edge or a fragment-internal edge?
			inter := false
			for _, ie := range r.InterEdges {
				if PackUV(ie.U, ie.V) == uv {
					inter = true
				}
			}
			t.Errorf("node %d parent edge {%d,%d} not in MST; interEdge=%v fragParentPort=%d frag=%d peerFrag=%d",
				v, v, peer, inter, r.FragParentPort, r.FragID, results[peer].FragID)
		}
	}
}

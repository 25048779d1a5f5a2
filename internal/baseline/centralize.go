package baseline

import (
	"context"
	"sync"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/proto"
)

// Centralize is the trivial distributed algorithm the sublinear one is
// measured against: every edge is shipped to the BFS root (pipelined
// AllGather, Θ(m + D) rounds), which reconstructs the whole graph and
// solves min cut locally with Stoer–Wagner. Exact, simple — and paying
// Θ(m) rounds where the paper's algorithm pays Õ(√n + D).
//
// Returns the cut value (identical at every node) and the run stats.
func Centralize(g *graph.Graph) (int64, *congest.Stats, error) {
	var mu sync.Mutex
	var value int64 = -1
	stats, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
		tags := new(proto.Tags)
		bfs := proto.BuildBFS(nd, 0, tags)
		// Each edge reported once, by its lower-ID endpoint.
		var mine []proto.Item
		for p := 0; p < nd.Degree(); p++ {
			if nd.ID() < nd.Peer(p) {
				mine = append(mine, proto.Item{
					A: int64(nd.ID()), B: int64(nd.Peer(p)), C: nd.EdgeWeight(p),
				})
			}
		}
		items := proto.Gather(nd, bfs, tags, mine)
		var cut int64
		if bfs.Root {
			h := graph.New(nd.N())
			for _, it := range items {
				h.MustAddEdge(graph.NodeID(it.A), graph.NodeID(it.B), it.C)
			}
			h.SortAdjacency()
			w, _, err := StoerWagner(h)
			if err != nil {
				panic(err)
			}
			cut = w
		}
		cut = proto.BroadcastItem(nd, bfs, tags, proto.Item{A: cut}).A
		mu.Lock()
		value = cut
		mu.Unlock()
	})
	if err != nil {
		return 0, nil, err
	}
	return value, stats, nil
}

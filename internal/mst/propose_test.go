package mst

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/proto"
)

// proposalWorkloads mix shapes where Part 1 proposals meet in
// different ways: the clique has many mutual MOEs between equal-weight
// tails, the clique path and the cycle long chains of proposals, and
// the random graph a bit of both. In the star, the small-clique path
// and the grid, fragments saturate early next to ones that have not,
// so unsaturated heads propose to saturated neighbours and chains
// T→F→S (a tail proposing to a heads fragment that itself proposes to
// a saturated one) form.
func proposalWorkloads() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"clique":       graph.Complete(16),
		"cliquepath":   graph.CliquePath(4, 6, 2),
		"cycle":        graph.Cycle(40),
		"gnp":          graph.GNP(60, 0.1, 2),
		"star":         graph.Star(30),
		"smallcliques": graph.CliquePath(12, 3, 1),
		"grid":         graph.Grid(7, 7),
	}
}

const proposalSeeds = 32

// TestProposalsAcrossSeeds: Part 1 sends a PROPOSE only over the MOE
// and answers it when the next exchange loop or the proposer's own
// reply wait sees it. Over many coin sequences, every run must end
// with Kruskal's tree, no message left over, and every node's tag
// counter at the same place.
func TestProposalsAcrossSeeds(t *testing.T) {
	for name, g := range proposalWorkloads() {
		for seed := int64(1); seed <= proposalSeeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				var mu sync.Mutex
				results := make([]*Result, g.N())
				counters := make([]uint32, g.N())
				stats, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
					tags := new(proto.Tags)
					res := Run(nd, proto.BuildBFS(nd, 0, tags), nil, 0, seed, tags)
					mu.Lock()
					results[nd.ID()], counters[nd.ID()] = res, tags.Next(0)
					mu.Unlock()
				})
				if err != nil {
					t.Fatal(err)
				}
				if stats.Leftover != 0 {
					t.Fatalf("MST left %d unconsumed messages", stats.Leftover)
				}
				for v, c := range counters {
					if c != counters[0] {
						t.Fatalf("node %d ends at tag %d, node 0 at %d", v, c, counters[0])
					}
				}
				checkTree(t, g, nil, results)
			})
		}
	}
}

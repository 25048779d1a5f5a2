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

// cliqueWithHeavyPath is Complete(16) with a 40-node path of weight-50
// edges hanging off node 15. The clique's fragments saturate within a
// few iterations; the path's fragments grow one coin-gated merge at a
// time, so they leave Part 1 many iterations after the clique's.
func cliqueWithHeavyPath() *graph.Graph {
	const k, pathLen = 16, 40
	g := graph.New(k + pathLen)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			g.MustAddEdge(graph.NodeID(i), graph.NodeID(j), 1)
		}
	}
	for v := k - 1; v < k+pathLen-1; v++ {
		g.MustAddEdge(graph.NodeID(v), graph.NodeID(v+1), 50)
	}
	g.SortAdjacency()
	return g
}

// skewedWorkloads are graphs whose Part 1 fragments leave at different
// iterations.
func skewedWorkloads() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"cliquepath":  graph.CliquePath(4, 6, 2),
		"clique+path": cliqueWithHeavyPath(),
	}
}

const skewSeeds = 8

// part1ExitRounds runs only BFS and Part 1 and returns the round at
// which each node left Part 1.
func part1ExitRounds(t *testing.T, g *graph.Graph, seed int64) []int {
	t.Helper()
	var mu sync.Mutex
	exit := make([]int, g.N())
	_, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
		tags := new(proto.Tags)
		r := &runner{nd: nd, bfs: proto.BuildBFS(nd, 0, tags), cap: SizeCap(nd.N()), seed: seed, tags: tags}
		r.part1()
		mu.Lock()
		exit[nd.ID()] = nd.Round()
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	return exit
}

// TestPart1SkewedExit: fragments that leave Part 1 at different
// iterations still yield Kruskal's tree with no message left over, and
// on the clique with a heavy path the exits really are far apart.
func TestPart1SkewedExit(t *testing.T) {
	for name, g := range skewedWorkloads() {
		for seed := int64(1); seed <= skewSeeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				checkAgainstKruskal(t, g, nil, seed)
				if name != "clique+path" {
					return
				}
				exit := part1ExitRounds(t, g, seed)
				first, last := exit[0], exit[0]
				for _, r := range exit {
					first, last = min(first, r), max(last, r)
				}
				if last-first < 20 {
					t.Fatalf("Part 1 exits span rounds %d..%d, want the clique and the path at least 20 rounds apart", first, last)
				}
			})
		}
	}
}

// TestBackToBackRuns: two Run calls in one engine run, the second under
// loads raised on the first tree's edges, as the packing loop builds
// its trees. Fragments leave the first run's Part 1 at different
// iterations, so the second run only works if every node's tag counter
// is back in lockstep; its tree must be Kruskal's under the new loads.
func TestBackToBackRuns(t *testing.T) {
	for name, g := range skewedWorkloads() {
		for seed := int64(1); seed <= skewSeeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				var mu sync.Mutex
				first := make([]*Result, g.N())
				second := make([]*Result, g.N())
				counters := make([]uint32, g.N())
				stats, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
					tags := new(proto.Tags)
					bfs := proto.BuildBFS(nd, 0, tags)
					a := Run(nd, bfs, nil, 0, seed, tags)
					loads := make(map[int]int64)
					for _, p := range a.TreePorts() {
						loads[nd.EdgeID(p)] = 1
					}
					b := Run(nd, bfs, loads, 0, seed, tags)
					mu.Lock()
					first[nd.ID()], second[nd.ID()], counters[nd.ID()] = a, b, tags.Next(0)
					mu.Unlock()
				})
				if err != nil {
					t.Fatal(err)
				}
				if stats.Leftover != 0 {
					t.Fatalf("back-to-back runs left %d unconsumed messages", stats.Leftover)
				}
				for v, c := range counters {
					if c != counters[0] {
						t.Fatalf("node %d ends at tag %d, node 0 at %d", v, c, counters[0])
					}
				}
				checkTree(t, g, nil, first)
				loads := make([]int64, g.M())
				for v, r := range first {
					for _, p := range r.TreePorts() {
						loads[g.Adj(graph.NodeID(v))[p].EdgeID] = 1
					}
				}
				checkTree(t, g, loads, second)
			})
		}
	}
}

// TestMaxTagsIsWhatRunDraws: a Run on a connected view draws exactly
// MaxTags(n) tags at every node, so a caller can hand it a Sub block of
// that size.
func TestMaxTagsIsWhatRunDraws(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"path":    graph.Path(30),
		"regular": graph.RandomRegular(40, 4, 2),
		"skewed":  cliqueWithHeavyPath(),
	} {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			drawn := make([]uint32, g.N())
			_, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
				tags := new(proto.Tags)
				bfs := proto.BuildBFS(nd, 0, tags)
				before := tags.Next(0)
				Run(nd, bfs, nil, 0, 5, tags)
				mu.Lock()
				drawn[nd.ID()] = tags.Next(0) - before
				mu.Unlock()
			})
			if err != nil {
				t.Fatal(err)
			}
			for v, d := range drawn {
				if int(d) != MaxTags(g.N()) {
					t.Fatalf("node %d drew %d tags, MaxTags(%d) = %d", v, d, g.N(), MaxTags(g.N()))
				}
			}
		})
	}
}

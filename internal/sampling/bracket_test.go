package sampling

import (
	"context"
	"testing"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/proto"
)

// centralConnected samples the trial's skeleton centrally, edge by
// edge, and reports whether it is connected (union-find) and whether
// node 0 kept any edge.
func centralConnected(g *graph.Graph, seed int64, trial, level int) (connected, rootKept bool) {
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = i
	}
	var find func(x int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	comps := g.N()
	ts := TrialSeed(seed, trial)
	for _, e := range g.Edges() {
		if SampleWeight(ts, packPeers(e.U, e.V), level, e.W) == 0 {
			continue
		}
		if e.U == 0 || e.V == 0 {
			rootKept = true
		}
		if a, b := find(int(e.U)), find(int(e.V)); a != b {
			parent[a] = b
			comps--
		}
	}
	return comps == 1, rootKept
}

// TestSampledConnectedMatchesUnionFind runs sampledConnected for every
// (level, trial) of each (graph, seed) in one CONGEST run and compares
// each node's verdict with union-find on the same skeleton sampled
// centrally. The cases cover both verdicts, skeletons in which node 0
// keeps no edge, and fully kept skeletons (level 0); every run must
// consume all of its traffic.
func TestSampledConnectedMatchesUnionFind(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path-40":       graph.Path(40),
		"cycle-64":      graph.Cycle(64),
		"grid-6x8":      graph.Grid(6, 8),
		"complete-10":   graph.Complete(10),
		"hypercube-5":   graph.Hypercube(5),
		"regular-48-4":  graph.RandomRegular(48, 4, 1),
		"planted-16-16": graph.PlantedCut(16, 16, 2, 0.5, 3),
		"gnp-40-w":      graph.AssignWeights(graph.GNP(40, 0.15, 2), 1, 6, 1),
		"star-12":       graph.Star(12),
	}
	levels := []int{0, 1, 2, 3}
	const trials = 3
	var cases, connected, disconnected, rootIsolated, fullyKept int
	for name, g := range graphs {
		for seed := int64(0); seed < 2; seed++ {
			// verdicts[v][k] is node v's verdict in case k = level index·trials + trial.
			verdicts := make([][]bool, g.N())
			stats, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
				tags := new(proto.Tags)
				bfs := proto.BuildBFS(nd, 0, tags)
				keep := make([]bool, nd.Degree())
				var mine []bool
				for _, level := range levels {
					for trial := 0; trial < trials; trial++ {
						ts := TrialSeed(seed, trial)
						for p := range keep {
							keep[p] = SampleWeight(ts, packPeers(nd.ID(), nd.Peer(p)), level, nd.EdgeWeight(p)) > 0
						}
						mine = append(mine, sampledConnected(nd, bfs, keep, tags))
					}
				}
				verdicts[nd.ID()] = mine
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if stats.Leftover != 0 {
				t.Errorf("%s seed %d: %d messages left over", name, seed, stats.Leftover)
			}
			for li, level := range levels {
				for trial := 0; trial < trials; trial++ {
					k := li*trials + trial
					want, rootKept := centralConnected(g, seed, trial, level)
					for v := range verdicts {
						if verdicts[v][k] != want {
							t.Fatalf("%s seed %d level %d trial %d: node %d says connected=%v, union-find says %v",
								name, seed, level, trial, v, verdicts[v][k], want)
						}
					}
					cases++
					if want {
						connected++
					} else {
						disconnected++
					}
					if !rootKept {
						rootIsolated++
					}
					if level == 0 {
						fullyKept++
					}
				}
			}
		}
	}
	t.Logf("%d cases: %d connected, %d disconnected, %d with node 0 isolated, %d fully kept",
		cases, connected, disconnected, rootIsolated, fullyKept)
	if cases < 200 || connected == 0 || disconnected == 0 || rootIsolated == 0 || fullyKept == 0 {
		t.Fatal("coverage too thin: want ≥ 200 cases with both verdicts, node 0 isolated and fully kept skeletons")
	}
}

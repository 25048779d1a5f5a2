package packing_test

import (
	"context"
	"sync"
	"testing"

	"distmincut/internal/baseline"
	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/packing"
	"distmincut/internal/proto"
	"distmincut/internal/verify"
)

// runExact runs the exact algorithm distributedly with the given
// search bound and returns the common result, whether it is certified
// exact, each node's side bit and the evaluated true cut weight.
func runExact(t *testing.T, g *graph.Graph, seed, maxLambda int64) (*packing.Result, bool, []bool, int64) {
	t.Helper()
	var mu sync.Mutex
	results := make([]*packing.Result, g.N())
	exacts := make([]bool, g.N())
	sides := make([]bool, g.N())
	used := make([]uint32, g.N())
	var evaluated int64
	stats, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
		tags := new(proto.Tags)
		bfs := proto.BuildBFS(nd, 0, tags)
		res, exact := packing.Exact(nd, bfs, maxLambda, packing.Options{Seed: seed}, tags)
		side := packing.MarkSide(nd, bfs, res, tags)
		ev := packing.EvaluateCut(nd, bfs, side, tags)
		mu.Lock()
		results[nd.ID()] = res
		exacts[nd.ID()] = exact
		sides[nd.ID()] = side
		used[nd.ID()] = tags.Next(0)
		evaluated = ev
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Leftover != 0 {
		t.Fatalf("packing left %d unconsumed messages", stats.Leftover)
	}
	for v := 1; v < g.N(); v++ {
		if results[v].Cut != results[0].Cut || results[v].CutNode != results[0].CutNode ||
			results[v].Trees != results[0].Trees || exacts[v] != exacts[0] ||
			results[v].MaxLoad != results[0].MaxLoad || results[v].MaxLoadWeight != results[0].MaxLoadWeight {
			t.Fatalf("node %d disagrees on result", v)
		}
		if used[v] != used[0] {
			t.Fatalf("node %d drew %d tags, node 0 drew %d: draws left lockstep", v, used[v], used[0])
		}
	}
	return results[0], exacts[0], sides, evaluated
}

func TestExactMatchesStoerWagner(t *testing.T) {
	workloads := map[string]*graph.Graph{
		"cycle":      graph.Cycle(16),
		"planted1":   graph.PlantedCut(10, 12, 1, 0.5, 2),
		"planted2":   graph.PlantedCut(10, 12, 2, 0.5, 3),
		"planted3":   graph.PlantedCut(12, 10, 3, 0.6, 4),
		"planted4":   graph.PlantedCut(10, 10, 4, 0.7, 5),
		"barbell":    graph.Barbell(6, 2),
		"cliquepath": graph.CliquePath(3, 5, 2),
		"hypercube":  graph.Hypercube(3),
		"weighted":   graph.AssignWeights(graph.Cycle(12), 1, 5, 6),
		"star":       graph.Star(9),
	}
	for name, g := range workloads {
		t.Run(name, func(t *testing.T) {
			want, _, err := baseline.StoerWagner(g)
			if err != nil {
				t.Fatal(err)
			}
			res, exact, sides, evaluated := runExact(t, g, 7, 1<<20)
			if !exact {
				t.Fatal("not certified exact")
			}
			if res.Cut != want {
				t.Fatalf("distributed exact min cut %d, Stoer–Wagner %d", res.Cut, want)
			}
			// The marked side must be a real cut of exactly that weight.
			w, err := verify.CutSides(g, sides)
			if err != nil {
				t.Fatalf("marked side invalid: %v", err)
			}
			if w != want {
				t.Fatalf("marked side weighs %d, want %d", w, want)
			}
			if evaluated != want {
				t.Fatalf("EvaluateCut returned %d, want %d", evaluated, want)
			}
		})
	}
}

// TestExactMaxLambda: on a weighted cycle with λ = 40 but
// maxLambda = 4 the search gives up gracefully, uncertified and with a
// real cut no lighter than λ.
func TestExactMaxLambda(t *testing.T) {
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%6), 20)
	}
	g.SortAdjacency()
	res, exact, sides, evaluated := runExact(t, g, 1, 4)
	if exact {
		t.Fatal("certified exact despite the maxLambda cap")
	}
	if res.Cut < 40 || evaluated < 40 {
		t.Fatalf("cut %d (evaluated %d) below the true min cut 40 — not a cut", res.Cut, evaluated)
	}
	if w, err := verify.CutSides(g, sides); err != nil || w != evaluated {
		t.Fatalf("marked side weighs %d (err %v), evaluated %d", w, err, evaluated)
	}
}

func TestSequentialPackingFindsMinCut(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := graph.PlantedCut(14, 14, 2, 0.5, seed)
		want, _, err := baseline.StoerWagner(g)
		if err != nil {
			t.Fatal(err)
		}
		trees, err := packing.GreedySequential(g, packing.PracticalTau(want, g.N()))
		if err != nil {
			t.Fatal(err)
		}
		got, idx := packing.BestOverTrees(g, trees)
		if got != want {
			t.Fatalf("seed %d: packing best %d (tree %d), want %d", seed, got, idx, want)
		}
	}
}

func TestTreesUntilHitWithinPracticalBound(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := graph.PlantedCut(12, 12, 3, 0.6, seed+10)
		lambda, _, err := baseline.StoerWagner(g)
		if err != nil {
			t.Fatal(err)
		}
		bound := packing.PracticalTau(lambda, g.N())
		hit, err := packing.TreesUntilHit(g, lambda, bound)
		if err != nil {
			t.Fatal(err)
		}
		if hit > bound {
			t.Fatalf("seed %d: needed %d trees, practical bound %d", seed, hit, bound)
		}
	}
}

func TestTauPolicies(t *testing.T) {
	if packing.TheoreticalTau(1, 100) < packing.PracticalTau(1, 100) {
		t.Fatal("theoretical bound should dominate at lambda=1")
	}
	if packing.PracticalTau(2, 100) <= packing.PracticalTau(1, 100) {
		t.Fatal("tau must grow with lambda")
	}
	if packing.TheoreticalTau(100, 1000) != 1e7 {
		t.Fatal("theoretical bound must clamp")
	}
}

// TestPackStopBelow: Pack stops on its caller's rule. On a star the
// minimum cut is 1 and the first tree already 1-respects it, so the
// rule "best cut ≤ 1" stops the packing after one tree.
func TestPackStopBelow(t *testing.T) {
	g := graph.Star(12)
	var trees int
	var mu sync.Mutex
	_, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
		tags := new(proto.Tags)
		bfs := proto.BuildBFS(nd, 0, tags)
		res := packing.Pack(nd, bfs, packing.Options{}, tags, func(r *packing.Result) bool {
			return r.Trees >= 10 || r.Cut <= 1
		})
		mu.Lock()
		trees = res.Trees
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if trees != 1 {
		t.Fatalf("the rule Cut <= 1 did not stop the packing early: packed %d trees", trees)
	}
}

// TestProvesLargeWeights: the duality test Trees·W > (c−1)·L is exact
// for weights near 2^62 and loads in the hundreds, where the int64
// products overflow.
func TestProvesLargeWeights(t *testing.T) {
	const w = 1<<62 - 1
	r := &packing.Result{Trees: 300, MaxLoad: 300, MaxLoadWeight: w}
	// 300·w > (c−1)·300 ⟺ c−1 < w.
	if !r.Proves(w) {
		t.Fatalf("300 trees at load 300 on weight %d must prove λ ≥ %d", int64(w), int64(w))
	}
	if r.Proves(w + 1) {
		t.Fatalf("300 trees at load 300 on weight %d must not prove λ ≥ %d", int64(w), int64(w)+1)
	}
	// 200·(201·2^54) > (c−1)·201 ⟺ c ≤ 200·2^54.
	r = &packing.Result{Trees: 200, MaxLoad: 201, MaxLoadWeight: 201 << 54}
	if !r.Proves(200 << 54) {
		t.Fatal("200 trees at load 201 on weight 201·2^54 must prove λ ≥ 200·2^54")
	}
	if r.Proves(200<<54 + 1) {
		t.Fatal("200 trees at load 201 on weight 201·2^54 must not prove λ ≥ 200·2^54 + 1")
	}
	if (&packing.Result{}).Proves(1) {
		t.Fatal("no trees must prove nothing")
	}
}

// TestExactLoadRatioMatchesSequential: the load ratio every node ends
// Exact with is the maximum load(e)/w(e) of the sequential packing of
// as many trees, and a duality-certified run stops at
// TreesUntilCertified's count.
func TestExactLoadRatioMatchesSequential(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"planted3": graph.PlantedCut(12, 10, 3, 0.6, 4),
		"weighted": graph.AssignWeights(graph.GNP(16, 0.4, 3), 1, 6, 4),
	} {
		t.Run(name, func(t *testing.T) {
			lambda, _, err := baseline.StoerWagner(g)
			if err != nil {
				t.Fatal(err)
			}
			res, exact, _, _ := runExact(t, g, 7, 1<<20)
			if !exact || res.Cut != lambda {
				t.Fatalf("cut %d (exact %v), want %d", res.Cut, exact, lambda)
			}
			trees, err := packing.GreedySequential(g, res.Trees)
			if err != nil {
				t.Fatal(err)
			}
			loads := make([]int64, g.M())
			for _, tr := range trees {
				for v := 0; v < tr.N(); v++ {
					if id := tr.ParentEdge(graph.NodeID(v)); id >= 0 {
						loads[id]++
					}
				}
			}
			var l, w int64 = 0, 1
			for _, e := range g.Edges() {
				if loads[e.ID]*w > l*e.W {
					l, w = loads[e.ID], e.W
				}
			}
			if l*res.MaxLoadWeight != res.MaxLoad*w {
				t.Fatalf("distributed max load ratio %d/%d, sequential %d/%d", res.MaxLoad, res.MaxLoadWeight, l, w)
			}
			if res.Proves(res.Cut) {
				cert, err := packing.TreesUntilCertified(g, lambda, res.Trees)
				if err != nil {
					t.Fatal(err)
				}
				if cert != res.Trees {
					t.Fatalf("Exact stopped at %d trees on the duality proof, TreesUntilCertified says %d", res.Trees, cert)
				}
			}
		})
	}
}

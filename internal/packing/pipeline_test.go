package packing_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/mst"
	"distmincut/internal/packing"
	"distmincut/internal/proto"
	"distmincut/internal/verify"
)

// replayExact packs trees centrally (Kruskal under the loads, as
// GreedySequential) and sweeps every one with the 1-respecting oracle
// until Exact's stop rule holds. It returns the packing result the
// rule stopped on.
func replayExact(t *testing.T, g *graph.Graph, maxLambda int64) *packing.Result {
	t.Helper()
	enough := packing.ExactEnough(packing.ExactCap(maxLambda), g.N())
	res := &packing.Result{Cut: math.MaxInt64, CutNode: -1, TreeIndex: -1}
	loads := make([]int64, g.M())
	for !enough(res) {
		ids, err := mst.Kruskal(g, loads)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			loads[id]++
		}
		tr, err := mst.TreeOf(g, ids, 0)
		if err != nil {
			t.Fatal(err)
		}
		c, _ := verify.BestOneRespect(verify.OneRespectOracle(g, tr), tr)
		var l, w int64 = 0, 1
		for _, e := range g.Edges() {
			if proto.MulLess(l, e.W, loads[e.ID], w) {
				l, w = loads[e.ID], e.W
			}
		}
		res.Trees++
		res.MaxLoad, res.MaxLoadWeight = l, w
		if c < res.Cut {
			res.Cut, res.TreeIndex = c, res.Trees-1
		}
	}
	return res
}

// pipelineRun is one distributed Exact run: node 0's result, the
// number of MSTs run (node 0's mst spans) and of respect sweeps.
type pipelineRun struct {
	res          *packing.Result
	msts, sweeps int
}

func runPipelined(t *testing.T, g *graph.Graph, maxLambda int64) pipelineRun {
	t.Helper()
	var mu sync.Mutex
	var out pipelineRun
	stats, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
		tags := new(proto.Tags)
		bfs := proto.BuildBFS(nd, 0, tags)
		res, _ := packing.Exact(nd, bfs, maxLambda, packing.Options{Seed: 1}, tags)
		if nd.ID() == 0 {
			mu.Lock()
			out.res = res
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Leftover != 0 {
		t.Fatalf("packing left %d unconsumed messages", stats.Leftover)
	}
	for _, m := range stats.Marks {
		switch m.Label {
		case "begin:mst":
			out.msts++
		case "begin:respect":
			out.sweeps++
		}
	}
	return out
}

// TestPipelinedExactMatchesReplay: the pipelined packing (tree i+1's
// MST forked beside tree i's sweep, sweeps skipped once the loads
// prove the cut) stops on the same tree with the same cut, winning
// tree and load ratio as a sequential replay of Exact's stop rule that
// sweeps every tree. The graphs are exact-narrow's pool at seed 1
// (PlantedCut(24,24,3,0.3) seeds 1,000,003 + i), a torus, a cycle, a
// random regular graph and a weighted GNP. A speculative MST is
// discarded when the sweep it ran beside improves the cut enough to
// stop; the test counts those and the skipped sweeps.
func TestPipelinedExactMatchesReplay(t *testing.T) {
	type input struct {
		name string
		g    *graph.Graph
	}
	var inputs []input
	pool := 32
	if testing.Short() {
		pool = 4
	}
	for i := 0; i < pool; i++ {
		inputs = append(inputs, input{fmt.Sprintf("pool%d", i), graph.PlantedCut(24, 24, 3, 0.3, 1_000_003+int64(i))})
	}
	inputs = append(inputs,
		input{"torus", graph.Torus(6, 6)},
		input{"cycle", graph.Cycle(16)},
		input{"regular", graph.RandomRegular(24, 4, 3)},
		input{"weighted", graph.AssignWeights(graph.GNP(16, 0.4, 3), 1, 6, 4)},
	)
	const maxLambda = 1 << 20
	var trees, wasted, skipped, poolSkips int
	for _, in := range inputs {
		want := replayExact(t, in.g, maxLambda)
		got := runPipelined(t, in.g, maxLambda)
		r := got.res
		if r.Cut != want.Cut || r.TreeIndex != want.TreeIndex || r.Trees != want.Trees ||
			r.MaxLoad*want.MaxLoadWeight != want.MaxLoad*r.MaxLoadWeight {
			t.Errorf("%s: pipelined cut %d tree %d of %d ratio %d/%d; replay cut %d tree %d of %d ratio %d/%d",
				in.name, r.Cut, r.TreeIndex, r.Trees, r.MaxLoad, r.MaxLoadWeight,
				want.Cut, want.TreeIndex, want.Trees, want.MaxLoad, want.MaxLoadWeight)
			continue
		}
		trees += r.Trees
		wasted += got.msts - r.Trees
		skipped += r.Trees - got.sweeps
		if strings.HasPrefix(in.name, "pool") && r.Trees-got.sweeps >= 1 {
			poolSkips++
		}
	}
	t.Logf("%d graphs, %d trees: %d speculative MSTs discarded, %d sweeps skipped (%d pool graphs skip one)",
		len(inputs), trees, wasted, skipped, poolSkips)
	if wasted != 0 {
		t.Errorf("%d speculative MSTs discarded, want 0 on these inputs", wasted)
	}
	if poolSkips != pool {
		t.Errorf("the skip fired on %d of %d pool graphs, want all", poolSkips, pool)
	}
}

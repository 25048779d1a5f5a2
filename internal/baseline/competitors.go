package baseline

import (
	"math"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/packing"
	"distmincut/internal/proto"
	"distmincut/internal/sampling"
)

// GhaffariKuhnEmulated is the comparison point the paper improves on:
// the (2+ε)-approximation of Ghaffari & Kuhn [DISC 2013]. Implementing
// their full distributed machinery (random layering, distributed
// Matula) is a paper-sized project orthogonal to this one, so the
// *answer* comes from the sequential Matula core
// their algorithm distributes, and the *round bill* from their
// published complexity Õ((√n + D)·poly(1/ε)), instantiated with unit
// constants as (√n + D)·ln²n/ε. Both coordinates of the comparison
// (approximation ratio, round scaling) are thereby preserved; absolute
// round constants are not claimed.
func GhaffariKuhnEmulated(g *graph.Graph, eps float64) (value int64, rounds int, err error) {
	value, err = Matula(g, eps)
	if err != nil {
		return 0, 0, err
	}
	n := float64(g.N())
	d := float64(graph.DiameterLowerBound(g))
	ln := math.Log(n + 2)
	rounds = int(math.Ceil((math.Sqrt(n) + d) * ln * ln / eps))
	return value, rounds, nil
}

// SuResult reports one node's view of Su's algorithm.
type SuResult struct {
	Value       int64 // cut weight in the original graph
	SkeletonCut int64
	Level       int
	Trees       int
	Side        bool
}

// suTrees is the fixed tree budget Su packs per sampling level.
const suTrees = 8

// Su runs the concurrent algorithm of Su [SPAA 2014] distributedly: it
// shares the paper's starting point (Thorup packing) but works on a
// Karger skeleton sampled with p = min(1, Θ(log n/(ε²λ))) — descending
// p until the skeleton's packed cut falls below the threshold κ(ε) —
// and packs a fixed budget of suTrees trees per level with a
// bridge-style check rather than the exact algorithm's certifying
// stop rule. It therefore never certifies exactness, even when λ is
// small (the drawback the paper notes). The found cut is evaluated
// under the original weights.
//
// The per-edge sampled weights reuse the shared deterministic
// randomness of internal/sampling; per-tree cut detection is the
// crossing-count aggregation — both Su's Thurimella-based procedure
// and ours are Õ(√n + D) tree aggregations.
func Su(nd *congest.Node, bfs *proto.Overlay, g *graph.Graph, eps float64, seed int64, tags *proto.Tags) *SuResult {
	kappa := sampling.Kappa(eps, nd.N())
	weightAt := func(level int) func(p int) int64 {
		if level == 0 {
			return nil
		}
		return func(p int) int64 {
			e := g.Edge(nd.EdgeID(p))
			return sampling.SampleWeight(seed, int64(e.U)<<31|int64(e.V), level, e.W)
		}
	}
	var res *packing.Result
	level := 0
	trees := 0
	for ; level < 62; level++ {
		cur := packing.Pack(nd, bfs, packing.Options{Weight: weightAt(level), Seed: seed}, tags,
			func(r *packing.Result) bool { return r.Trees >= suTrees })
		trees += cur.Trees
		if !cur.Connected {
			// Oversampled: keep the previous level's result.
			level--
			break
		}
		res = cur
		if cur.Cut <= kappa {
			break
		}
	}
	side := packing.MarkSide(nd, bfs, res, tags)
	value := packing.EvaluateCut(nd, bfs, side, tags)
	return &SuResult{
		Value:       value,
		SkeletonCut: res.Cut,
		Level:       level,
		Trees:       trees,
		Side:        side,
	}
}

package packing

import (
	"distmincut/internal/graph"
	"distmincut/internal/mst"
	"distmincut/internal/proto"
	"distmincut/internal/tree"
	"distmincut/internal/verify"
)

// GreedySequential packs tau trees centrally (Kruskal under cumulative
// loads) and returns them rooted at 0. It is the reference
// implementation the distributed packing is verified against, and the
// engine of experiment E7.
func GreedySequential(g *graph.Graph, tau int) ([]*tree.Tree, error) {
	loads := make([]int64, g.M())
	trees := make([]*tree.Tree, 0, tau)
	for i := 0; i < tau; i++ {
		ids, err := mst.Kruskal(g, loads)
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			loads[id]++
		}
		t, err := mst.TreeOf(g, ids, 0)
		if err != nil {
			return nil, err
		}
		trees = append(trees, t)
	}
	return trees, nil
}

// BestOverTrees evaluates the best 1-respecting cut over a set of trees
// with the sequential oracle: the minimum cut estimate the packing
// yields, plus the index of the first tree achieving it.
func BestOverTrees(g *graph.Graph, trees []*tree.Tree) (int64, int) {
	best, bestIdx := int64(-1), -1
	for i, t := range trees {
		q := verify.OneRespectOracle(g, t)
		c, _ := verify.BestOneRespect(q, t)
		if bestIdx == -1 || c < best {
			best, bestIdx = c, i
		}
	}
	return best, bestIdx
}

// TreesUntilHit packs trees one at a time until some tree's best
// 1-respecting cut equals the true minimum cut lambda, returning the
// number of trees needed (or maxTrees+1 if never hit). This measures
// the empirical packing requirement for experiment E7.
func TreesUntilHit(g *graph.Graph, lambda int64, maxTrees int) (int, error) {
	loads := make([]int64, g.M())
	for i := 1; i <= maxTrees; i++ {
		ids, err := mst.Kruskal(g, loads)
		if err != nil {
			return 0, err
		}
		for _, id := range ids {
			loads[id]++
		}
		t, err := mst.TreeOf(g, ids, 0)
		if err != nil {
			return 0, err
		}
		q := verify.OneRespectOracle(g, t)
		c, _ := verify.BestOneRespect(q, t)
		if c == lambda {
			return i, nil
		}
	}
	return maxTrees + 1, nil
}

// TreesUntilCertified packs trees like TreesUntilHit and returns the
// first tree count τ at which some tree so far has hit lambda and the
// loads prove λ ≥ lambda by weak duality, τ·w(e) > (lambda−1)·load(e)
// on every edge (or maxTrees+1 if that never happens). This is the
// count at which Exact's duality stop fires. The proof is not monotone
// in τ: one more tree adds w(e) to τ·w(e) but lambda−1 to
// (lambda−1)·load(e) on each of its edges, so it can break the
// inequality on an edge with w(e) < lambda−1. Hence the first such
// count, not a threshold.
func TreesUntilCertified(g *graph.Graph, lambda int64, maxTrees int) (int, error) {
	loads := make([]int64, g.M())
	hit := false
	for i := 1; i <= maxTrees; i++ {
		ids, err := mst.Kruskal(g, loads)
		if err != nil {
			return 0, err
		}
		for _, id := range ids {
			loads[id]++
		}
		if !hit {
			t, err := mst.TreeOf(g, ids, 0)
			if err != nil {
				return 0, err
			}
			q := verify.OneRespectOracle(g, t)
			c, _ := verify.BestOneRespect(q, t)
			hit = c == lambda
		}
		if hit && loadsProve(g, loads, i, lambda) {
			return i, nil
		}
	}
	return maxTrees + 1, nil
}

// loadsProve reports whether trees trees with these loads prove
// λ ≥ c: trees·w(e) > (c−1)·load(e) on every edge.
func loadsProve(g *graph.Graph, loads []int64, trees int, c int64) bool {
	for _, e := range g.Edges() {
		if !proto.MulLess(c-1, loads[e.ID], int64(trees), e.W) {
			return false
		}
	}
	return true
}

// Package baseline implements the comparison algorithms the paper
// measures itself against, plus sequential ground-truth solvers:
//
//   - Stoer–Wagner: exact deterministic global minimum cut, the ground
//     truth every distributed result is checked against.
//   - Karger's randomized contraction: an independent probabilistic
//     exact solver, used to cross-check Stoer–Wagner in tests.
//   - Matula-style (2+ε) approximation via sparse certificates, the
//     sequential core of Ghaffari–Kuhn's distributed algorithm
//     [DISC 2013].
//   - A Ghaffari–Kuhn emulation: Matula's answer priced with GK13's
//     published round complexity (GhaffariKuhnEmulated documents
//     the substitution).
//   - Su's concurrent algorithm [SPAA 2014]: tree packing plus edge
//     sampling plus per-tree bridge detection, run distributedly.
package baseline

import (
	"errors"

	"distmincut/internal/graph"
)

// ErrTooSmall is returned for graphs with fewer than two nodes, where
// no cut exists.
var ErrTooSmall = errors.New("baseline: graph has no nonempty cut")

// StoerWagner computes the exact global minimum cut of a connected
// weighted graph in O(n³) time and O(n²) space. It returns the cut
// weight and one side of an optimal cut. Disconnected graphs return 0
// and one component.
func StoerWagner(g *graph.Graph) (int64, []bool, error) {
	n := g.N()
	if n < 2 {
		return 0, nil, ErrTooSmall
	}
	if comp, k := graph.Components(g); k > 1 {
		side := make([]bool, n)
		for v := 0; v < n; v++ {
			side[v] = comp[v] == 0
		}
		return 0, side, nil
	}
	// Dense weight matrix over active supernodes.
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
	}
	for _, e := range g.Edges() {
		w[e.U][e.V] += e.W
		w[e.V][e.U] += e.W
	}
	// members[i] is the set of original nodes merged into supernode i.
	members := make([][]int, n)
	for i := range members {
		members[i] = []int{i}
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	bestWeight := int64(-1)
	var bestSide []bool

	inA := make([]bool, n)
	weightTo := make([]int64, n)
	for len(active) > 1 {
		// Minimum cut phase (maximum adjacency order).
		for _, v := range active {
			inA[v] = false
			weightTo[v] = 0
		}
		prev, last := -1, -1
		for i := 0; i < len(active); i++ {
			// Pick the most tightly connected unvisited supernode.
			sel := -1
			for _, v := range active {
				if !inA[v] && (sel == -1 || weightTo[v] > weightTo[sel]) {
					sel = v
				}
			}
			inA[sel] = true
			prev, last = last, sel
			for _, v := range active {
				if !inA[v] {
					weightTo[v] += w[sel][v]
				}
			}
		}
		// Cut-of-the-phase: last supernode alone versus the rest.
		phaseCut := weightTo[last]
		if bestWeight < 0 || phaseCut < bestWeight {
			bestWeight = phaseCut
			bestSide = make([]bool, n)
			for _, orig := range members[last] {
				bestSide[orig] = true
			}
		}
		// Merge last into prev.
		members[prev] = append(members[prev], members[last]...)
		for _, v := range active {
			if v != last && v != prev {
				w[prev][v] += w[last][v]
				w[v][prev] = w[prev][v]
			}
		}
		for i, v := range active {
			if v == last {
				active = append(active[:i], active[i+1:]...)
				break
			}
		}
	}
	return bestWeight, bestSide, nil
}

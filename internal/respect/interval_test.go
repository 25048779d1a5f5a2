package respect

import (
	"fmt"
	"math/rand"
	"testing"

	"distmincut/internal/graph"
	"distmincut/internal/tree"
)

// TestPreorderIntervalsAndLCA runs random (tree, fragmentation) pairs
// through Bootstrap and Run. Every node's in-fragment ancestor
// intervals must match internal/tree's ancestry restricted to the
// fragment, and ρ, which needs step 5's interval LCA on every
// same-fragment edge, must equal the tree.LCA oracle. The shapes cover
// path-shaped deep fragments, dense same-fragment non-tree edges and
// single-node fragments.
func TestPreorderIntervalsAndLCA(t *testing.T) {
	const pairs = 240
	for i := 0; i < pairs; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		shape := []string{"random", "path", "bushy"}[i%3]
		split := []float64{0, 0.15, 0.4, 1}[i/3%4] // chance a node starts its own fragment
		density := []float64{0.05, 0.3, 1}[i/12%3] // chance of each non-tree edge
		name := fmt.Sprintf("%d/%s/split=%.2f/density=%.2f", i, shape, split, density)
		g, tr, fragOf := randomFragmentedTree(rng, 2+rng.Intn(30), shape, split, density)
		outs, runs := runBootstrap(t, g, tr, fragOf)
		checkIntervals(t, name, tr, fragOf, runs)
		rho := make([]int64, g.N())
		for _, e := range g.Edges() {
			rho[tr.LCA(e.U, e.V)] += e.W
		}
		for v, o := range outs {
			if o.Rho != rho[v] {
				t.Fatalf("%s: node %d: ρ = %d, tree.LCA oracle %d", name, v, o.Rho, rho[v])
			}
		}
	}
}

// randomFragmentedTree builds an n-node spanning tree rooted at node 0
// (nodes visited in a random order, each hung below an earlier one: any
// earlier node for "random", the previous one for "path", one of the
// first three for "bushy"), splits it into connected fragments named by
// their topmost node, and adds each non-tree edge with the given
// probability. Weights are random in [1, 20].
func randomFragmentedTree(rng *rand.Rand, n int, shape string, split, density float64) (*graph.Graph, *tree.Tree, []int64) {
	order := append([]int{0}, rng.Perm(n-1)...)
	for k := 1; k < n; k++ {
		order[k]++
	}
	g := graph.New(n)
	parent := make([]graph.NodeID, n)
	parentEdge := make([]int, n)
	fragOf := make([]int64, n)
	parent[0], parentEdge[0] = -1, -1
	adjacent := make(map[[2]int]bool)
	for k := 1; k < n; k++ {
		var up int
		switch shape {
		case "path":
			up = k - 1
		case "bushy":
			up = rng.Intn(min(k, 3))
		default:
			up = rng.Intn(k)
		}
		v, p := order[k], order[up]
		parent[v] = graph.NodeID(p)
		parentEdge[v] = g.MustAddEdge(graph.NodeID(p), graph.NodeID(v), 1+rng.Int63n(20))
		adjacent[[2]int{min(p, v), max(p, v)}] = true
		fragOf[v] = fragOf[p]
		if rng.Float64() < split {
			fragOf[v] = int64(v)
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !adjacent[[2]int{u, v}] && rng.Float64() < density {
				g.MustAddEdge(graph.NodeID(u), graph.NodeID(v), 1+rng.Int63n(20))
			}
		}
	}
	g.SortAdjacency()
	tr, err := tree.New(0, parent, parentEdge)
	if err != nil {
		panic(err)
	}
	return g, tr, fragOf
}

// checkIntervals holds every node's step-2 intervals against tr: the
// in-fragment prefix of A(v) carries one interval per entry, each equal
// to that ancestor's own; size(u) counts u's in-fragment descendants;
// and for every u in v's fragment, u is an ancestor of v exactly when
// pre(v) lies in u's interval.
func checkIntervals(t *testing.T, name string, tr *tree.Tree, fragOf []int64, runs []*respectRun) {
	t.Helper()
	n := len(runs)
	pre := func(u int) int64 { return runs[u].ancPre[0] }
	size := func(u int) int64 { return runs[u].ancSize[0] }
	for v, r := range runs {
		var chain []graph.NodeID
		for _, u := range tr.AncestorChain(graph.NodeID(v), -1) {
			if fragOf[u] != fragOf[v] {
				break
			}
			chain = append(chain, u)
		}
		if len(r.sameFragAnc) != len(chain) || len(r.ancPre) != len(chain) || len(r.ancSize) != len(chain) {
			t.Fatalf("%s: node %d: %d ancestors / %d pre / %d size entries for %d in-fragment ancestors",
				name, v, len(r.sameFragAnc), len(r.ancPre), len(r.ancSize), len(chain))
		}
		for k, u := range chain {
			if r.sameFragAnc[k] != u || r.ancPre[k] != pre(int(u)) || r.ancSize[k] != size(int(u)) {
				t.Fatalf("%s: node %d: entry %d is (%d, [%d,+%d)), ancestor %d has [%d,+%d)",
					name, v, k, r.sameFragAnc[k], r.ancPre[k], r.ancSize[k], u, pre(int(u)), size(int(u)))
			}
		}
		var desc int64
		for u := 0; u < n; u++ {
			if fragOf[u] != fragOf[v] {
				continue
			}
			anc := tr.IsAncestor(graph.NodeID(u), graph.NodeID(v))
			if in := pre(u) <= pre(v) && pre(v) < pre(u)+size(u); in != anc {
				t.Fatalf("%s: node %d at pre %d: interval of %d is [%d,+%d) (contains: %v), IsAncestor %v",
					name, v, pre(v), u, pre(u), size(u), in, anc)
			}
			if tr.IsAncestor(graph.NodeID(v), graph.NodeID(u)) {
				desc++
			}
		}
		if size(v) != desc {
			t.Fatalf("%s: node %d: size %d, %d in-fragment descendants", name, v, size(v), desc)
		}
	}
}

package mst

import (
	"math/rand"
	"slices"
	"testing"

	"distmincut/internal/graph"
)

// TestFragTreeOrientsRandomTrees builds random fragment trees with
// scattered fragment IDs, hands NewFragTree their edges in random order
// and orientation, and checks every fragment's parent and attachment
// edge against the tree it was built from, Edges against the input and
// AppendSubtrees against the ancestor relation.
func TestFragTreeOrientsRandomTrees(t *testing.T) {
	for c := 0; c < 200; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		n := 1 + rng.Intn(40)
		ids := make([]int64, n) // fragment k has ID ids[k]; fragment 0 is the root
		for k, v := range rng.Perm(1000)[:n] {
			ids[k] = int64(v)
		}
		parent := make([]int, n) // parent[k] < k
		inner := make([]graph.NodeID, n)
		outer := make([]graph.NodeID, n)
		var inter []InterEdge
		for k := 1; k < n; k++ {
			parent[k] = rng.Intn(k)
			inner[k], outer[k] = graph.NodeID(2000+k), graph.NodeID(3000+rng.Intn(50))
			ie := InterEdge{U: inner[k], V: outer[k], FragU: ids[k], FragV: ids[parent[k]]}
			if rng.Intn(2) == 0 {
				ie = InterEdge{U: ie.V, V: ie.U, FragU: ie.FragV, FragV: ie.FragU}
			}
			inter = append(inter, ie)
		}
		rng.Shuffle(len(inter), func(i, j int) { inter[i], inter[j] = inter[j], inter[i] })
		ft := NewFragTree(inter, ids[0])

		if ft.Len() != n {
			t.Fatalf("case %d: %d fragments, want %d", c, ft.Len(), n)
		}
		isAncestor := func(a, k int) bool { // a is k or above it
			for ; k != 0 && k != a; k = parent[k] {
			}
			return k == a
		}
		for k := 0; k < n; k++ {
			i := ft.Index(ids[k])
			if i < 0 || ft.ID(i) != ids[k] || i > 0 && ft.ID(i-1) >= ft.ID(i) {
				t.Fatalf("case %d: fragment %d at index %d", c, ids[k], i)
			}
			gotIn, gotOut := ft.Attachment(i)
			p := ft.Parent(i)
			switch {
			case k == 0 && (p != -1 || gotIn != -1 || gotOut != -1):
				t.Fatalf("case %d: root fragment has parent %d via %d-%d", c, p, gotIn, gotOut)
			case k > 0 && (p < 0 || ft.ID(p) != ids[parent[k]] || gotIn != inner[k] || gotOut != outer[k]):
				t.Fatalf("case %d: fragment %d: parent index %d via %d-%d, want %d via %d-%d",
					c, ids[k], p, gotIn, gotOut, ids[parent[k]], inner[k], outer[k])
			}
			if ft.IsFragRoot(inner[k]) != (k > 0) {
				t.Fatalf("case %d: IsFragRoot(%d) = %v", c, inner[k], !(k > 0))
			}
		}
		// Edges gives the input back in order, each edge turned to
		// have U its smaller endpoint.
		edges := ft.Edges()
		if len(edges) != len(inter) {
			t.Fatalf("case %d: %d edges, want %d", c, len(edges), len(inter))
		}
		for i, ie := range inter {
			if ie.U > ie.V {
				ie = InterEdge{U: ie.V, V: ie.U, FragU: ie.FragV, FragV: ie.FragU}
			}
			if edges[i] != ie {
				t.Fatalf("case %d: edge %d = %v, want %v", c, i, edges[i], ie)
			}
		}
		// Subtrees of a random set of pairwise unrelated fragments.
		var roots []int64
		for _, k := range rng.Perm(n)[:rng.Intn(n+1)] {
			unrelated := true
			for _, r := range roots {
				j := slices.Index(ids, r)
				unrelated = unrelated && !isAncestor(j, k) && !isAncestor(k, j)
			}
			if unrelated {
				roots = append(roots, ids[k])
			}
		}
		var want []int64
		for k := 0; k < n; k++ {
			for _, r := range roots {
				if isAncestor(slices.Index(ids, r), k) {
					want = append(want, ids[k])
				}
			}
		}
		slices.Sort(want)
		if got := ft.AppendSubtrees(nil, roots); !slices.Equal(got, want) {
			t.Fatalf("case %d: subtrees of %v = %v, want %v", c, roots, got, want)
		}
	}
}

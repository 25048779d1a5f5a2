package respect

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"distmincut/internal/graph"
	"distmincut/internal/mst"
	"distmincut/internal/partition"
	"distmincut/internal/tree"
)

// TestFlatFragmentStateMatchesMaps pins the flat per-node fragment
// state (mst.FragTree, the sorted F(v), the sorted step-2c pairs and
// TPrime) against the map-based code it replaced, copied below as
// reference implementations, on random (tree, fragmentation) pairs in
// the shapes of TestPreorderIntervalsAndLCA. At every node it compares
// fragment parents and attachment edges, F(v), each ancestor's step-2c
// increment, lowestAncestorContaining for every fragment, T'_F parent
// lookups for every node, and tprimeLCA for every pair of T'_F nodes.
func TestFlatFragmentStateMatchesMaps(t *testing.T) {
	const pairs = 200
	for i := 0; i < pairs; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		shape := []string{"random", "path", "bushy"}[i%3]
		split := []float64{0.05, 0.15, 0.4, 1}[i/3%4]
		density := []float64{0.05, 0.3, 1}[i/12%3]
		name := fmt.Sprintf("%d/%s/split=%.2f/density=%.2f", i, shape, split, density)
		g, tr, fragOf := randomFragmentedTree(rng, 2+rng.Intn(30), shape, split, density)
		outs, runs := runBootstrap(t, g, tr, fragOf)
		checkFlatState(t, name, rng, tr, fragOf, outs, runs)
	}
}

func checkFlatState(t *testing.T, name string, rng *rand.Rand, tr *tree.Tree, fragOf []int64, outs []*Output, runs []*respectRun) {
	t.Helper()
	n := len(outs)
	// The fragment tree's edges, each reported child side first as
	// Bootstrap gathers them, then shuffled and half of them flipped:
	// the orientation must not depend on order or orientation.
	var inter []mst.InterEdge
	for v := 1; v < n; v++ {
		if p := tr.Parent(graph.NodeID(v)); fragOf[p] != fragOf[v] {
			inter = append(inter, mst.InterEdge{U: graph.NodeID(v), V: p, FragU: fragOf[v], FragV: fragOf[p]})
		}
	}
	rng.Shuffle(len(inter), func(i, j int) { inter[i], inter[j] = inter[j], inter[i] })
	for i, ie := range inter {
		if rng.Intn(2) == 0 {
			inter[i] = mst.InterEdge{U: ie.V, V: ie.U, FragU: ie.FragV, FragV: ie.FragU}
		}
	}
	rootFrag := fragOf[0]
	fragParent, attach := refOrientFragments(inter, rootFrag)
	checkFragTree(t, name+"/shuffled", mst.NewFragTree(inter, rootFrag), fragParent, attach)
	for v, r := range runs {
		checkFragTree(t, fmt.Sprintf("%s/node %d", name, v), r.in.Frags, fragParent, attach)
	}

	// F(v) the old way: the fragments attached inside v↓ to v's own
	// fragment, closed under fragDescendants.
	desc := refFragDescendants(fragParent)
	fragSet := make([]map[int64]bool, n)
	for v := range outs {
		fragSet[v] = map[int64]bool{}
		for c, p := range fragParent {
			if p == fragOf[v] && tr.IsAncestor(graph.NodeID(v), attach[c].outer) {
				for _, d := range desc[c] {
					fragSet[v][d] = true
				}
			}
		}
		if got, want := outs[v].FragSet, sortedKeys(fragSet[v]); !slices.Equal(got, want) {
			t.Fatalf("%s: node %d: F(v) = %v, map reference %v", name, v, got, want)
		}
	}

	frags := sortedKeys(fragParent)
	targets := append(frags, -5) // -5 is no fragment
	for v, r := range runs {
		// A(v) and the step-2c increments the old way: a pair (u, f)
		// reaches v when f ∈ F(u) and no node on the way down, v
		// included, holds f.
		var chain, sameFrag []graph.NodeID
		for _, u := range tr.AncestorChain(graph.NodeID(v), -1) {
			if fragOf[u] != fragOf[v] && fragOf[u] != fragParent[fragOf[v]] {
				break
			}
			chain = append(chain, u)
			if fragOf[u] == fragOf[v] {
				sameFrag = append(sameFrag, u)
			}
		}
		if !slices.Equal(outs[v].Ancestors, chain) {
			t.Fatalf("%s: node %d: A(v) = %v, tree %v", name, v, outs[v].Ancestors, chain)
		}
		fragOfAncestor := map[graph.NodeID]map[int64]bool{}
		for k, u := range chain[1:] {
			for f := range fragSet[u] {
				covered := false
				for _, w := range chain[:k+1] {
					covered = covered || fragSet[w][f]
				}
				if !covered {
					if fragOfAncestor[u] == nil {
						fragOfAncestor[u] = map[int64]bool{}
					}
					fragOfAncestor[u][f] = true
				}
			}
		}
		for _, u := range chain[1:] {
			var got []int64
			for _, p := range r.increment(u) {
				got = append(got, p.f)
			}
			if want := sortedKeys(fragOfAncestor[u]); !slices.Equal(got, want) {
				t.Fatalf("%s: node %d: increment of %d = %v, map reference %v", name, v, u, got, want)
			}
		}
		for _, f := range targets {
			got := graph.NodeID(-1)
			if k := r.lowestAncestorContaining(outs[v], f); k >= 0 {
				got = r.sameFragAnc[k]
			}
			if want := refLowestAncestorContaining(graph.NodeID(v), sameFrag, fragSet[v], fragOfAncestor, f); got != want {
				t.Fatalf("%s: node %d: lowest ancestor containing %d = %d, map reference %d", name, v, f, got, want)
			}
		}
	}

	// T'_F: parent lookups at every node, LCAs at node 0, against the
	// sequential skeleton's parent map.
	d := &partition.Decomposition{FragOf: fragOf, RootOf: make([]graph.NodeID, n)}
	for v := range fragOf {
		d.RootOf[v] = graph.NodeID(fragOf[v])
		if d.RootOf[v] == graph.NodeID(v) {
			d.Roots = append(d.Roots, graph.NodeID(v))
		}
	}
	tp := partition.BuildSkeleton(tr, d).Parent
	for v, o := range outs {
		if len(o.TPrime) != len(tp) {
			t.Fatalf("%s: node %d: |T'F| = %d, map reference %d", name, v, len(o.TPrime), len(tp))
		}
		for u := graph.NodeID(-1); u <= graph.NodeID(n); u++ {
			gp, gok := o.TPrime.Parent(u)
			wp, wok := tp[u]
			if gok != wok || gok && gp != wp {
				t.Fatalf("%s: node %d: T'F parent of %d = %d (%v), map reference %d (%v)", name, v, u, gp, gok, wp, wok)
			}
		}
	}
	for a := range tp {
		for b := range tp {
			if got, want := tprimeLCA(outs[0].TPrime, a, b), refTprimeLCA(tp, a, b); got != want {
				t.Fatalf("%s: T'F LCA of %d and %d = %d, map reference %d", name, a, b, got, want)
			}
		}
	}
}

// checkFragTree holds a FragTree against the map-based orientation.
func checkFragTree(t *testing.T, name string, ft mst.FragTree, fragParent map[int64]int64, attach map[int64]refAttachment) {
	t.Helper()
	if ft.Len() != len(fragParent) {
		t.Fatalf("%s: %d fragments, map reference %d", name, ft.Len(), len(fragParent))
	}
	for i := 0; i < ft.Len(); i++ {
		f := ft.ID(i)
		if i > 0 && ft.ID(i-1) >= f {
			t.Fatalf("%s: fragment IDs out of order at %d", name, i)
		}
		parent, inner, outer := int64(-1), graph.NodeID(-1), graph.NodeID(-1)
		if p := ft.Parent(i); p >= 0 {
			parent = ft.ID(p)
			inner, outer = ft.Attachment(i)
		}
		want, ok := fragParent[f]
		if !ok || parent != want || want >= 0 && (inner != attach[f].inner || outer != attach[f].outer) {
			t.Fatalf("%s: fragment %d: parent %d via %d-%d, map reference %d via %d-%d (present %v)",
				name, f, parent, inner, outer, want, attach[f].inner, attach[f].outer, ok)
		}
		if ft.Index(f) != i {
			t.Fatalf("%s: Index(%d) = %d, want %d", name, f, ft.Index(f), i)
		}
	}
}

func sortedKeys[V any](m map[int64]V) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// The map-based reference implementations below are the code the flat
// state replaced, kept verbatim but for names.

type refAttachment struct {
	inner graph.NodeID
	outer graph.NodeID
}

// refOrientFragments is mst's former orientFragments.
func refOrientFragments(inter []mst.InterEdge, rootFrag int64) (map[int64]int64, map[int64]refAttachment) {
	adj := make(map[int64][]mst.InterEdge)
	for _, ie := range inter {
		adj[ie.FragU] = append(adj[ie.FragU], ie)
		adj[ie.FragV] = append(adj[ie.FragV], ie)
	}
	fragParent := map[int64]int64{rootFrag: -1}
	attach := make(map[int64]refAttachment, len(inter))
	for queue := []int64{rootFrag}; len(queue) > 0; queue = queue[1:] {
		f := queue[0]
		for _, ie := range adj[f] {
			child, childInner, childOuter := ie.FragV, ie.V, ie.U
			if ie.FragV == f {
				child, childInner, childOuter = ie.FragU, ie.U, ie.V
			}
			if _, seen := fragParent[child]; seen {
				continue
			}
			fragParent[child] = f
			attach[child] = refAttachment{inner: childInner, outer: childOuter}
			queue = append(queue, child)
		}
	}
	return fragParent, attach
}

// refFragDescendants is respect's former fragDescendants.
func refFragDescendants(fragParent map[int64]int64) map[int64][]int64 {
	children := make(map[int64][]int64, len(fragParent))
	var root int64 = -1
	for f, p := range fragParent {
		if p == -1 {
			root = f
			continue
		}
		children[p] = append(children[p], f)
	}
	for _, c := range children {
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	}
	desc := make(map[int64][]int64, len(fragParent))
	type frame struct {
		f    int64
		next int
	}
	if root == -1 {
		return desc
	}
	stack := []frame{{f: root}}
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		kids := children[fr.f]
		if fr.next < len(kids) {
			c := kids[fr.next]
			fr.next++
			stack = append(stack, frame{f: c})
			continue
		}
		all := []int64{fr.f}
		for _, c := range kids {
			all = append(all, desc[c]...)
		}
		desc[fr.f] = all
		stack = stack[:len(stack)-1]
	}
	return desc
}

// refLowestAncestorContaining is the former lowestAncestorContaining
// on v's F(v) map and step-2c increment maps.
func refLowestAncestorContaining(v graph.NodeID, sameFragAnc []graph.NodeID, fragSet map[int64]bool, fragOfAncestor map[graph.NodeID]map[int64]bool, target int64) graph.NodeID {
	if fragSet[target] {
		return v
	}
	for _, u := range sameFragAnc[1:] {
		if fragOfAncestor[u][target] {
			return u
		}
	}
	return -1
}

// refTprimeLCA is the former tprimeLCA on the T'_F parent map.
func refTprimeLCA(tp map[graph.NodeID]graph.NodeID, a, b graph.NodeID) graph.NodeID {
	depth := func(x graph.NodeID) int {
		d := 0
		for x != -1 {
			x = tp[x]
			d++
		}
		return d
	}
	da, db := depth(a), depth(b)
	for da > db {
		a = tp[a]
		da--
	}
	for db > da {
		b = tp[b]
		db--
	}
	for a != b {
		a, b = tp[a], tp[b]
	}
	return a
}

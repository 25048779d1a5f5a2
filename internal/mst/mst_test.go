package mst

import (
	"context"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/proto"
	"distmincut/internal/tree"
)

func TestKeyOrderingUnique(t *testing.T) {
	f := func(l1, l2 uint16, w1, w2 uint16, uv1, uv2 uint32) bool {
		a := Key{Load: int64(l1), W: int64(w1) + 1, UV: int64(uv1)}
		b := Key{Load: int64(l2), W: int64(w2) + 1, UV: int64(uv2)}
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		// Total order: exactly one direction.
		return a.Less(b) != b.Less(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPackUnpackUV(t *testing.T) {
	f := func(a, b uint32) bool {
		u := graph.NodeID(a % (1 << 30))
		v := graph.NodeID(b % (1 << 30))
		if u == v {
			return true
		}
		x, y := UnpackUV(PackUV(u, v))
		if u > v {
			u, v = v, u
		}
		return x == u && y == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKruskalPlainMST(t *testing.T) {
	// Weighted square with diagonal: MST must pick the three lightest.
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 3, 5)
	g.MustAddEdge(3, 0, 4)
	g.MustAddEdge(0, 2, 3)
	g.SortAdjacency()
	ids, err := Kruskal(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, id := range ids {
		total += g.Edge(id).W
	}
	// Sorted edges: 1,2,3,4,5; the weight-3 diagonal closes a cycle, so
	// the MST is 1+2+4.
	if total != 1+2+4 {
		t.Fatalf("MST weight %d, want 7", total)
	}
}

func TestKruskalRespectsLoads(t *testing.T) {
	// Unit triangle: with a load on edge {0,1}, the MST must avoid it.
	g := graph.New(3)
	e01 := g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 1)
	g.SortAdjacency()
	loads := make([]int64, 3)
	loads[e01] = 5
	ids, err := Kruskal(g, loads)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id == e01 {
			t.Fatal("loaded edge chosen despite alternatives")
		}
	}
}

func TestKruskalDisconnected(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	if _, err := Kruskal(g, nil); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

// collectDistributed runs the distributed MST and returns per-node
// results.
func collectDistributed(t *testing.T, g *graph.Graph, loads []int64, seed int64) []*Result {
	t.Helper()
	return collectWeighted(t, g, loads, nil, seed)
}

// collectWeighted is collectDistributed under a per-edge weight view
// (view[edgeID] <= 0 erases the edge); a nil view runs plain Run.
func collectWeighted(t *testing.T, g *graph.Graph, loads, view []int64, seed int64) []*Result {
	t.Helper()
	var mu sync.Mutex
	results := make([]*Result, g.N())
	stats, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
		tags := new(proto.Tags)
		bfs := proto.BuildBFS(nd, 0, tags)
		var local []int64 // per port
		if loads != nil {
			local = make([]int64, nd.Degree())
			for p := range local {
				local[p] = loads[nd.EdgeID(p)]
			}
		}
		var res *Result
		if view == nil {
			res = Run(nd, bfs, local, 0, seed, tags)
		} else {
			res = RunWeighted(nd, bfs, local, func(p int) int64 { return view[nd.EdgeID(p)] }, 0, seed, tags)
		}
		mu.Lock()
		results[nd.ID()] = res
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Leftover != 0 {
		t.Fatalf("MST left %d unconsumed messages", stats.Leftover)
	}
	return results
}

// treeEdgesOf extracts the set of chosen edge UV pairs from per-node
// parent ports.
func treeEdgesOf(g *graph.Graph, results []*Result) map[int64]bool {
	set := make(map[int64]bool)
	for v, r := range results {
		if r.ParentPort >= 0 {
			peer := g.Adj(graph.NodeID(v))[r.ParentPort].Peer
			set[PackUV(graph.NodeID(v), peer)] = true
		}
	}
	return set
}

func checkAgainstKruskal(t *testing.T, g *graph.Graph, loads []int64, seed int64) []*Result {
	t.Helper()
	results := collectDistributed(t, g, loads, seed)
	checkTree(t, g, loads, results)
	return results
}

// checkTree requires the per-node results to form Kruskal's MST under
// loads, oriented as a tree rooted at node 0 with mirrored child ports.
func checkTree(t *testing.T, g *graph.Graph, loads []int64, results []*Result) {
	t.Helper()
	want, err := Kruskal(g, loads)
	if err != nil {
		t.Fatal(err)
	}
	wantSet := make(map[int64]bool, len(want))
	for _, id := range want {
		e := g.Edge(id)
		wantSet[PackUV(e.U, e.V)] = true
	}
	got := treeEdgesOf(g, results)
	if len(got) != len(wantSet) {
		t.Fatalf("distributed tree has %d edges, Kruskal %d", len(got), len(wantSet))
	}
	for uv := range got {
		if !wantSet[uv] {
			u, v := UnpackUV(uv)
			t.Fatalf("distributed tree contains non-MST edge {%d,%d}", u, v)
		}
	}
	// Orientation must form a tree rooted at 0.
	parent := make([]graph.NodeID, g.N())
	for v, r := range results {
		if v == 0 {
			if r.ParentPort != -1 {
				t.Fatal("node 0 has a parent")
			}
			parent[0] = -1
			continue
		}
		if r.ParentPort < 0 {
			t.Fatalf("node %d has no parent", v)
		}
		parent[v] = g.Adj(graph.NodeID(v))[r.ParentPort].Peer
	}
	if _, err := tree.New(0, parent, nil); err != nil {
		t.Fatalf("orientation is not a tree: %v", err)
	}
	// Child ports must mirror parent ports.
	childCount := 0
	for v, r := range results {
		for _, c := range r.ChildPorts {
			peer := g.Adj(graph.NodeID(v))[c].Peer
			if parent[peer] != graph.NodeID(v) {
				t.Fatalf("node %d lists %d as child, but its parent is %d", v, peer, parent[peer])
			}
			childCount++
		}
	}
	if childCount != g.N()-1 {
		t.Fatalf("total child links %d, want %d", childCount, g.N()-1)
	}
}

// kruskalWorkloads are the graphs TestDistributedMSTMatchesKruskal
// checks; the Result fingerprint pins the same set.
func kruskalWorkloads() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"cycle":       graph.Cycle(24),
		"grid":        graph.Grid(6, 6),
		"gnp-sparse":  graph.GNP(60, 0.08, 3),
		"gnp-dense":   graph.GNP(40, 0.35, 4),
		"weighted":    graph.AssignWeights(graph.GNP(50, 0.15, 5), 1, 40, 6),
		"clique":      graph.Complete(16),
		"star":        graph.Star(20),
		"path":        graph.Path(30),
		"tiny":        graph.Path(2),
		"single":      graph.Path(1),
		"torus":       graph.Torus(5, 5),
		"cliquepath":  graph.CliquePath(4, 6, 2),
		"weightedbig": graph.AssignWeights(graph.GNP(80, 0.1, 7), 1, 1000, 8),
	}
}

func TestDistributedMSTMatchesKruskal(t *testing.T) {
	for name, g := range kruskalWorkloads() {
		t.Run(name, func(t *testing.T) {
			checkAgainstKruskal(t, g, nil, 11)
		})
	}
}

// loadsWorkload is a GNP graph with packing loads 0..4 cycling over
// edge IDs, so keys order mostly by load.
func loadsWorkload() (*graph.Graph, []int64) {
	g := graph.GNP(50, 0.2, 9)
	loads := make([]int64, g.M())
	for i := range loads {
		loads[i] = int64(i % 5)
	}
	return g, loads
}

func TestDistributedMSTWithLoads(t *testing.T) {
	g, loads := loadsWorkload()
	checkAgainstKruskal(t, g, loads, 13)
}

func TestDistributedMSTSeedsAgree(t *testing.T) {
	// Different engine seeds change Part-1 coin flips but the MST is
	// unique, so the tree must be identical.
	g := graph.GNP(45, 0.15, 21)
	a := treeEdgesOf(g, collectDistributed(t, g, nil, 1))
	b := treeEdgesOf(g, collectDistributed(t, g, nil, 99))
	if len(a) != len(b) {
		t.Fatalf("different seeds gave different tree sizes %d vs %d", len(a), len(b))
	}
	for uv := range a {
		if !b[uv] {
			t.Fatal("different seeds gave different trees")
		}
	}
}

func TestFragmentProperties(t *testing.T) {
	g := graph.GNP(120, 0.08, 17)
	results := collectDistributed(t, g, nil, 5)
	cap := SizeCap(g.N())

	// Group nodes by fragment.
	frags := make(map[int64][]graph.NodeID)
	for v, r := range results {
		frags[r.FragID] = append(frags[r.FragID], graph.NodeID(v))
	}
	// Count: every fragment saturated => at most n/cap fragments (+1 slack
	// for the single-fragment case).
	if len(frags) > g.N()/cap+1 {
		t.Fatalf("%d fragments exceed n/√n bound %d", len(frags), g.N()/cap+1)
	}
	for id, members := range frags {
		if len(frags) > 1 && len(members) < cap {
			t.Fatalf("fragment %d has %d members, below cap %d", id, len(members), cap)
		}
	}
	// Fragment-internal ports must form connected subtrees of the MST:
	// each fragment has exactly |members|-1 internal parent links and
	// every internal parent is in the same fragment.
	for id, members := range frags {
		links := 0
		for _, v := range members {
			r := results[v]
			if r.FragParentPort >= 0 {
				peer := g.Adj(v)[r.FragParentPort].Peer
				if results[peer].FragID != id {
					t.Fatalf("node %d frag parent %d in different fragment", v, peer)
				}
				links++
			} else if r.FragRootID != v {
				t.Fatalf("node %d is fragment root but FragRootID says %d", v, r.FragRootID)
			}
		}
		if links != len(members)-1 {
			t.Fatalf("fragment %d has %d internal links for %d members", id, links, len(members))
		}
	}
	// Every node agrees on the inter-edge list and root fragment.
	ref, refInter := results[0], results[0].InterEdges()
	for v := 1; v < g.N(); v++ {
		r, inter := results[v], results[v].InterEdges()
		if r.RootFrag != ref.RootFrag || len(inter) != len(refInter) {
			t.Fatalf("node %d disagrees on fragment tree", v)
		}
		for i := range inter {
			if inter[i] != refInter[i] {
				t.Fatalf("node %d inter-edge %d differs", v, i)
			}
		}
	}
	if len(refInter) != len(frags)-1 {
		t.Fatalf("%d inter-edges for %d fragments", len(refInter), len(frags))
	}
	// Fragment internal roots: the fragment root of the root fragment is
	// node 0; every other fragment's root is the attachment node.
	if results[0].FragParentPort != -1 {
		t.Fatal("node 0 must be its fragment's internal root")
	}
}

// Property: on random weighted graphs the distributed MST equals
// Kruskal. Smaller and quicker than the table-driven cases, but with
// random shapes.
func TestDistributedMSTProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%30) + 2
		g := graph.AssignWeights(graph.GNP(n, 0.25, seed), 1, 9, seed+1)
		results := collectDistributed(t, g, nil, seed+2)
		want, err := Kruskal(g, nil)
		if err != nil {
			return false
		}
		wantSet := make(map[int64]bool, len(want))
		for _, id := range want {
			e := g.Edge(id)
			wantSet[PackUV(e.U, e.V)] = true
		}
		got := treeEdgesOf(g, results)
		if len(got) != len(wantSet) {
			return false
		}
		for uv := range got {
			if !wantSet[uv] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestTreePortsSorted(t *testing.T) {
	g := graph.Grid(4, 4)
	results := collectDistributed(t, g, nil, 2)
	for v, r := range results {
		ports := r.TreePorts()
		if !sort.IntsAreSorted(ports) {
			t.Fatalf("node %d tree ports unsorted: %v", v, ports)
		}
		want := len(r.ChildPorts)
		if r.ParentPort >= 0 {
			want++
		}
		if len(ports) != want {
			t.Fatalf("node %d TreePorts length %d, want %d", v, len(ports), want)
		}
	}
}

package proto

import (
	"context"
	"sync"
	"testing"
	"testing/quick"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
)

// runAll executes program on every node of g and fails the test on any
// engine error or leftover traffic.
func runAll(t *testing.T, g *graph.Graph, program func(*congest.Node)) *congest.Stats {
	t.Helper()
	stats, err := congest.Run(context.Background(), g, congest.Options{}, program)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Leftover != 0 {
		t.Fatalf("protocol left %d unconsumed messages", stats.Leftover)
	}
	return stats
}

func TestBuildBFSMatchesSequential(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid":    graph.Grid(6, 7),
		"gnp":     graph.GNP(60, 0.1, 2),
		"cycle":   graph.Cycle(30),
		"clique":  graph.Complete(12),
		"barbell": graph.Barbell(8, 5),
		"single":  graph.Path(1),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			dist, _ := graph.BFS(g, 0)
			var mu sync.Mutex
			depth := make([]int, g.N())
			parent := make([]graph.NodeID, g.N())
			childCount := make([]int, g.N())
			stats := runAll(t, g, func(nd *congest.Node) {
				tags := new(Tags)
				ov := BuildBFS(nd, 0, tags)
				mu.Lock()
				defer mu.Unlock()
				depth[nd.ID()] = ov.Depth
				if ov.Root {
					parent[nd.ID()] = -1
				} else {
					parent[nd.ID()] = nd.Peer(ov.ParentPort)
				}
				childCount[nd.ID()] = len(ov.ChildPorts)
			})
			totalChildren := 0
			for v := 0; v < g.N(); v++ {
				if depth[v] != dist[v] {
					t.Fatalf("node %d depth %d, BFS dist %d", v, depth[v], dist[v])
				}
				if v != 0 && dist[parent[v]] != dist[v]-1 {
					t.Fatalf("node %d parent %d not one level up", v, parent[v])
				}
				totalChildren += childCount[v]
			}
			if totalChildren != g.N()-1 {
				t.Fatalf("child links %d, want %d", totalChildren, g.N()-1)
			}
			ecc := graph.Eccentricity(g, 0)
			if g.N() > 1 && stats.Rounds > ecc+2 {
				t.Fatalf("BFS rounds %d exceed eccentricity+2 = %d", stats.Rounds, ecc+2)
			}
		})
	}
}

func TestAdoptWaveOrientsTree(t *testing.T) {
	g := graph.RandomTree(40, 9)
	var mu sync.Mutex
	parent := make([]graph.NodeID, g.N())
	runAll(t, g, func(nd *congest.Node) {
		ports := make([]int, nd.Degree())
		for p := range ports {
			ports[p] = p // every edge of a tree graph is a tree edge
		}
		ov := AdoptWave(nd, ports, nd.ID() == 0, new(Tags))
		mu.Lock()
		defer mu.Unlock()
		if ov.Root {
			parent[nd.ID()] = -1
		} else {
			parent[nd.ID()] = nd.Peer(ov.ParentPort)
		}
	})
	dist, want := graph.BFS(g, 0)
	for v := 1; v < g.N(); v++ {
		if parent[v] != want[v] {
			t.Fatalf("node %d adopted %d, BFS parent %d (dist %d)", v, parent[v], want[v], dist[v])
		}
	}
}

func TestConvergeAndBroadcast(t *testing.T) {
	g := graph.GNP(50, 0.15, 4)
	var mu sync.Mutex
	results := make([]int64, g.N())
	runAll(t, g, func(nd *congest.Node) {
		tags := new(Tags)
		ov := BuildBFS(nd, 0, tags)
		total := ConvergeBroadcast(nd, ov, tags, int64(nd.ID()), Sum)
		mu.Lock()
		results[nd.ID()] = total
		mu.Unlock()
	})
	want := int64(g.N()*(g.N()-1)) / 2
	for v, got := range results {
		if got != want {
			t.Fatalf("node %d got sum %d, want %d", v, got, want)
		}
	}
}

func TestConvergeMinMax(t *testing.T) {
	g := graph.Cycle(17)
	var mu sync.Mutex
	mins := make([]int64, g.N())
	maxs := make([]int64, g.N())
	runAll(t, g, func(nd *congest.Node) {
		tags := new(Tags)
		ov := BuildBFS(nd, 0, tags)
		mn := ConvergeBroadcast(nd, ov, tags, 1000-int64(nd.ID()), Min)
		mx := ConvergeBroadcast(nd, ov, tags, 1000-int64(nd.ID()), Max)
		mu.Lock()
		mins[nd.ID()], maxs[nd.ID()] = mn, mx
		mu.Unlock()
	})
	for v := range mins {
		if mins[v] != 1000-16 || maxs[v] != 1000 {
			t.Fatalf("node %d min/max = %d/%d", v, mins[v], maxs[v])
		}
	}
}

func TestAllGatherEveryNodeSameSortedList(t *testing.T) {
	g := graph.Grid(5, 6)
	var mu sync.Mutex
	lists := make([][]Item, g.N())
	runAll(t, g, func(nd *congest.Node) {
		tags := new(Tags)
		ov := BuildBFS(nd, 0, tags)
		var mine []Item
		// Odd nodes contribute two items, even nodes one.
		mine = append(mine, Item{A: int64(nd.ID()), B: 1})
		if nd.ID()%2 == 1 {
			mine = append(mine, Item{A: int64(nd.ID()), B: 2})
		}
		all := AllGather(nd, ov, tags, mine)
		mu.Lock()
		lists[nd.ID()] = all
		mu.Unlock()
	})
	want := len(lists[0])
	expected := g.N() + g.N()/2
	if want != expected {
		t.Fatalf("gathered %d items, want %d", want, expected)
	}
	for v := 1; v < g.N(); v++ {
		if len(lists[v]) != want {
			t.Fatalf("node %d has %d items, node 0 has %d", v, len(lists[v]), want)
		}
		for i := range lists[v] {
			if lists[v][i] != lists[0][i] {
				t.Fatalf("node %d item %d differs", v, i)
			}
		}
	}
	// Sorted canonically.
	for i := 1; i < want; i++ {
		if CompareItems(lists[0][i], lists[0][i-1]) < 0 {
			t.Fatalf("AllGather result not sorted at %d", i)
		}
	}
}

func TestAllGatherPipelinedCost(t *testing.T) {
	// k items through a path of length L must take O(L + k), not O(L·k).
	g := graph.Path(40)
	const perNode = 3
	stats := runAll(t, g, func(nd *congest.Node) {
		tags := new(Tags)
		ov := BuildBFS(nd, 0, tags)
		mine := make([]Item, perNode)
		for i := range mine {
			mine[i] = Item{A: int64(nd.ID()), B: int64(i)}
		}
		AllGather(nd, ov, tags, mine)
	})
	k := 40 * perNode
	bound := 4*(40+k) + 20
	if stats.Rounds > bound {
		t.Fatalf("AllGather on path took %d rounds, want O(L+k) <= %d", stats.Rounds, bound)
	}
}

func TestKeyedSumMatchesDirectSum(t *testing.T) {
	g := graph.GNP(45, 0.12, 8)
	keys := []int64{3, 7, 11, 20}
	var mu sync.Mutex
	results := make([]map[int64]int64, g.N())
	runAll(t, g, func(nd *congest.Node) {
		tags := new(Tags)
		ov := BuildBFS(nd, 0, tags)
		mine := map[int64]int64{}
		for _, k := range keys {
			if int64(nd.ID())%k == 0 {
				mine[k] = int64(nd.ID()) + k
			}
		}
		got := KeyedSum(nd, ov, tags, keys, mine)
		mu.Lock()
		results[nd.ID()] = got
		mu.Unlock()
	})
	want := map[int64]int64{}
	for _, k := range keys {
		for v := 0; v < g.N(); v++ {
			if int64(v)%k == 0 {
				want[k] += int64(v) + k
			}
		}
	}
	for v := range results {
		for _, k := range keys {
			if results[v][k] != want[k] {
				t.Fatalf("node %d key %d: got %d want %d", v, k, results[v][k], want[k])
			}
		}
	}
}

// Property: ConvergeItem summing one word equals the sequential sum for random
// inputs on random graphs.
func TestConvergeSumProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%30) + 2
		g := graph.GNP(n, 0.2, seed)
		var mu sync.Mutex
		var rootTotal int64
		stats, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
			tags := new(Tags)
			ov := BuildBFS(nd, 0, tags)
			v, isRoot := ConvergeItem(nd, ov, tags, Item{A: int64(nd.ID()) * int64(nd.ID())}, onWord(Sum))
			if isRoot {
				mu.Lock()
				rootTotal = v.A
				mu.Unlock()
			}
		})
		if err != nil || stats.Leftover != 0 {
			return false
		}
		var want int64
		for v := 0; v < n; v++ {
			want += int64(v) * int64(v)
		}
		return rootTotal == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFloodFromRootOnly(t *testing.T) {
	g := graph.Star(9)
	items := []Item{{A: 5}, {A: 6}, {A: 7}}
	var mu sync.Mutex
	counts := make([]int, g.N())
	runAll(t, g, func(nd *congest.Node) {
		tags := new(Tags)
		ov := BuildBFS(nd, 0, tags)
		var in []Item
		if ov.Root {
			in = items
		}
		out := Flood(nd, ov, tags, in)
		mu.Lock()
		counts[nd.ID()] = len(out)
		mu.Unlock()
	})
	for v, c := range counts {
		if c != len(items) {
			t.Fatalf("node %d received %d items, want %d", v, c, len(items))
		}
	}
}

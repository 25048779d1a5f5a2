package proto

import (
	"sync"
	"testing"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
)

func TestKeyedSumEmptyKeys(t *testing.T) {
	g := graph.Cycle(8)
	runAll(t, g, func(nd *congest.Node) {
		tags := new(Tags)
		ov := BuildBFS(nd, 0, tags)
		res := KeyedSum(nd, ov, tags, nil, nil)
		if len(res) != 0 {
			panic("empty key list must give empty result")
		}
	})
}

// onWord lifts a one-word combiner to items carrying the word in A.
func onWord(combine func(a, b int64) int64) func(a, b Item) Item {
	return func(a, b Item) Item { return Item{A: combine(a.A, b.A)} }
}

// TestConvergeItemVecMatchesSequential: the batched vector convergecast
// must compute exactly what sequential ConvergeItem waves do —
// here a sum, a min, and a max ride one wave.
func TestConvergeItemVecMatchesSequential(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"path": graph.Path(17), "grid": graph.Grid(5, 5), "star": graph.Star(9),
	} {
		var mu sync.Mutex
		var gotVec, want []Item
		stats := runAll(t, g, func(nd *congest.Node) {
			tags := new(Tags)
			ov := BuildBFS(nd, 0, tags)
			id := int64(nd.ID())
			mine := []Item{{A: 1}, {A: id}, {A: id}}
			vec, root := ConvergeItemVec(nd, ov, tags, mine, func(slot int, a, b Item) Item {
				switch slot {
				case 0:
					return Item{A: a.A + b.A}
				case 1:
					if b.A < a.A {
						return b
					}
					return a
				default:
					if b.A > a.A {
						return b
					}
					return a
				}
			})
			s, _ := ConvergeItem(nd, ov, tags, Item{A: 1}, onWord(Sum))
			lo, _ := ConvergeItem(nd, ov, tags, Item{A: id}, onWord(Min))
			hi, _ := ConvergeItem(nd, ov, tags, Item{A: id}, onWord(Max))
			if root {
				mu.Lock()
				gotVec = vec
				want = []Item{s, lo, hi}
				mu.Unlock()
			}
		})
		if len(gotVec) != 3 {
			t.Fatalf("%s: root published %d slots, want 3", name, len(gotVec))
		}
		for j := range gotVec {
			if gotVec[j] != want[j] {
				t.Fatalf("%s: slot %d = %+v, want %+v", name, j, gotVec[j], want[j])
			}
		}
		if stats.Leftover != 0 {
			t.Fatalf("%s: %d leftover messages", name, stats.Leftover)
		}
	}
}

func TestGatherNoItems(t *testing.T) {
	g := graph.Grid(4, 4)
	runAll(t, g, func(nd *congest.Node) {
		tags := new(Tags)
		ov := BuildBFS(nd, 0, tags)
		got := Gather(nd, ov, tags, nil)
		if ov.Root && len(got) != 0 {
			panic("phantom items gathered")
		}
	})
}

func TestAllGatherSingleContributor(t *testing.T) {
	g := graph.Path(12)
	var mu sync.Mutex
	counts := make([]int, g.N())
	runAll(t, g, func(nd *congest.Node) {
		tags := new(Tags)
		ov := BuildBFS(nd, 0, tags)
		var mine []Item
		if nd.ID() == 7 {
			mine = []Item{{A: 42}}
		}
		got := AllGather(nd, ov, tags, mine)
		mu.Lock()
		counts[nd.ID()] = len(got)
		mu.Unlock()
		if len(got) != 1 || got[0].A != 42 {
			panic("single item not disseminated")
		}
	})
	for v, c := range counts {
		if c != 1 {
			t.Fatalf("node %d got %d items", v, c)
		}
	}
}

// TestAdoptWavePartialPorts: the wave must respect the given port
// subset (fragment-internal rooting uses exactly this).
func TestAdoptWavePartialPorts(t *testing.T) {
	// A cycle where the tree ports exclude the closing edge: AdoptWave
	// over the path ports from node 0.
	g := graph.Cycle(10)
	var mu sync.Mutex
	parents := make([]graph.NodeID, g.N())
	runAll(t, g, func(nd *congest.Node) {
		var ports []int
		for p := 0; p < nd.Degree(); p++ {
			peer := int(nd.Peer(p))
			me := int(nd.ID())
			// Path edges are between consecutive IDs.
			if peer == me+1 || peer == me-1 {
				ports = append(ports, p)
			}
		}
		ov := AdoptWave(nd, ports, nd.ID() == 0, new(Tags))
		mu.Lock()
		defer mu.Unlock()
		if ov.Root {
			parents[nd.ID()] = -1
		} else {
			parents[nd.ID()] = nd.Peer(ov.ParentPort)
		}
	})
	for v := 1; v < g.N(); v++ {
		if parents[v] != graph.NodeID(v-1) {
			t.Fatalf("node %d adopted %d, want %d", v, parents[v], v-1)
		}
	}
}

func TestConvergeItemPicksGlobalMin(t *testing.T) {
	g := graph.GNP(30, 0.2, 9)
	better := func(a, b Item) Item {
		if b.A < a.A {
			return b
		}
		return a
	}
	var mu sync.Mutex
	var rootGot Item
	runAll(t, g, func(nd *congest.Node) {
		tags := new(Tags)
		ov := BuildBFS(nd, 0, tags)
		mine := Item{A: 1000 - int64(nd.ID()), B: int64(nd.ID())}
		got, isRoot := ConvergeItem(nd, ov, tags, mine, better)
		if isRoot {
			mu.Lock()
			rootGot = got
			mu.Unlock()
		}
	})
	if rootGot.A != 1000-29 || rootGot.B != 29 {
		t.Fatalf("root converged %+v, want min item of node 29", rootGot)
	}
}

func TestBroadcastItemFull(t *testing.T) {
	g := graph.Star(9)
	var mu sync.Mutex
	vals := make([]Item, g.N())
	runAll(t, g, func(nd *congest.Node) {
		tags := new(Tags)
		ov := BuildBFS(nd, 0, tags)
		var it Item
		if ov.Root {
			it = Item{A: 1, B: 2, C: 3, D: 4}
		}
		got := BroadcastItem(nd, ov, tags, it)
		mu.Lock()
		vals[nd.ID()] = got
		mu.Unlock()
	})
	for v, it := range vals {
		if it != (Item{A: 1, B: 2, C: 3, D: 4}) {
			t.Fatalf("node %d got %+v", v, it)
		}
	}
}

func TestSortItemsCanonical(t *testing.T) {
	items := []Item{{A: 2}, {A: 1, B: 5}, {A: 1, B: 2, C: 9}, {A: 1, B: 2, C: 9, D: -1}}
	SortItems(items)
	for i := 1; i < len(items); i++ {
		if CompareItems(items[i], items[i-1]) < 0 {
			t.Fatalf("not sorted at %d: %+v", i, items)
		}
	}
}

package mst

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/proto"
)

// part2Cand packs a Part 2 candidate the way a physical fragment root
// upcasts it: u is the proposing fragment's endpoint.
func part2Cand(load, w int64, u, v graph.NodeID, myLogical, myPhys, targetLogical, targetPhys int64) proto.Item {
	d := targetLogical<<31 | targetPhys
	if u > v {
		d = ^d
	}
	return proto.Item{A: load<<31 | w, B: PackUV(u, v), C: myLogical<<31 | myPhys, D: d}
}

func censusItem(f int64) proto.Item { return proto.Item{A: itemCensus, B: f} }

// floodDone splits a root flood into its done item, census and chosen
// edges (decoded the way every node decodes them), checking that the
// done item comes last.
func floodDone(t *testing.T, flood []proto.Item) (done proto.Item, census []int64, edges []InterEdge) {
	t.Helper()
	if len(flood) == 0 || flood[len(flood)-1].A != itemDone {
		t.Fatalf("flood does not end with a done item: %v", flood)
	}
	for _, it := range flood[:len(flood)-1] {
		switch it.A {
		case itemFrag:
			census = append(census, it.B)
		case itemEdge:
			edges = append(edges, InterEdge{
				U: graph.NodeID(it.B >> 31), V: graph.NodeID(it.B & low31),
				FragU: it.C >> 31, FragV: it.C & low31,
			})
		case itemDone:
			t.Fatalf("second done item in %v", flood)
		}
	}
	return flood[len(flood)-1], census, edges
}

// TestPart2RootEndsAtOneComponent: when one iteration's unions join
// every census fragment, the same flood carries done, flagged connected,
// and the root's fragment, but no census: every node derives it from
// the chosen edges, and derives the same relabel the root tracks.
func TestPart2RootEndsAtOneComponent(t *testing.T) {
	s := &part2Root{rootFrag: 7}
	items := []proto.Item{
		censusItem(11), censusItem(2), censusItem(7),
		part2Cand(0, 1, 2, 7, 2, 2, 7, 7),    // 2 -> 7
		part2Cand(0, 1, 7, 2, 7, 7, 2, 2),    // 7 -> 2, the same edge
		part2Cand(0, 3, 11, 7, 11, 11, 7, 7), // 11 -> 7
	}
	flood := s.merge(items, 0)
	done, census, edges := floodDone(t, flood)
	if done.B != 1 || done.C != 7 || done.D != 1 {
		t.Fatalf("done item %+v, want B=1 (over), C=7 (root fragment), D=1 (connected)", done)
	}
	if len(census) != 0 {
		t.Fatalf("connected end flooded the census %v", census)
	}
	want := []InterEdge{{U: 2, V: 7, FragU: 2, FragV: 7}, {U: 11, V: 7, FragU: 11, FragV: 7}}
	if fmt.Sprint(edges) != fmt.Sprint(want) {
		t.Fatalf("chosen edges %v, want %v", edges, want)
	}
	if got := connectedCensus(edges, done.C); fmt.Sprint(got) != "[2 7 11]" {
		t.Fatalf("derived census %v, want [2 7 11]", got)
	}
	ids, to := unionRelabel(flood)
	for _, l := range []int64{2, 7, 11} {
		if got := relabel(ids, to, l); got != 2 {
			t.Fatalf("node-side relabel maps %d to %d, want 2", l, got)
		}
	}
	if fmt.Sprint(s.logical) != "[2 2 2]" {
		t.Fatalf("root tracks logical IDs %v, want [2 2 2]", s.logical)
	}
}

// TestPart2RootWaitsForSilentFragment: a census fragment that sends no
// candidate stays its own logical fragment, so the unions of the others
// must not end Part 2; the next, candidate-free iteration does, on a
// disconnected view, so it floods the census.
func TestPart2RootWaitsForSilentFragment(t *testing.T) {
	s := &part2Root{rootFrag: 2}
	items := []proto.Item{
		censusItem(2), censusItem(7), censusItem(11),
		part2Cand(0, 1, 2, 7, 2, 2, 7, 7),
		part2Cand(0, 1, 7, 2, 7, 7, 2, 2),
	}
	done, census, edges := floodDone(t, s.merge(items, 0))
	if done.B != 0 || len(census) != 0 || len(edges) != 1 {
		t.Fatalf("iteration 0 ended Part 2 early: done %+v, census %v, edges %v", done, census, edges)
	}
	done, census, edges = floodDone(t, s.merge(nil, 1))
	if done.B != 1 || done.C != 2 || done.D != 0 || fmt.Sprint(census) != "[2 7 11]" || len(edges) != 0 {
		t.Fatalf("candidate-free iteration: done %+v, census %v, edges %v", done, census, edges)
	}
}

// TestNodeRelabelMatchesUnionFind: over random candidate sets, the
// relabel every node derives from the root's flood equals a centralized
// union-find over each logical fragment's best candidate, with the
// minimum ID of each component as its representative.
func TestNodeRelabelMatchesUnionFind(t *testing.T) {
	for trial := uint64(0); trial < 300; trial++ {
		rnd := func(i uint64) uint64 { return proto.SplitMix64(trial<<20 | i) }
		k := 2 + int(rnd(0)%12)
		// k distinct logical IDs, each with one to three physical
		// fragments that may send a candidate.
		var logicals []int64
		for i := uint64(0); len(logicals) < k; i++ {
			l := int64(rnd(1000+i) % 500)
			if !slices.Contains(logicals, l) {
				logicals = append(logicals, l)
			}
		}
		var items []proto.Item
		best := map[int64]Key{}
		target := map[int64]int64{}
		for i, l := range logicals {
			items = append(items, censusItem(l))
			for j := uint64(0); j < 1+rnd(2000+uint64(i))%3; j++ {
				r := rnd(3000 + uint64(i)*8 + j)
				if r%4 == 0 {
					continue // a silent physical fragment
				}
				tl := logicals[int(r>>8)%k]
				if tl == l {
					continue
				}
				u := graph.NodeID(r >> 16 % 1000)
				v := graph.NodeID(r >> 32 % 1000)
				if u == v {
					v = u + 1
				}
				key := Key{Load: int64(r >> 48 % 3), W: int64(r >> 52 % 5), UV: PackUV(u, v)}
				items = append(items, part2Cand(key.Load, key.W, u, v, l, l, tl, tl))
				if cur, ok := best[l]; !ok || key.Less(cur) {
					best[l], target[l] = key, tl
				}
			}
		}
		parent := map[int64]int64{}
		var find func(x int64) int64
		find = func(x int64) int64 {
			if p, ok := parent[x]; ok && p != x {
				return find(p)
			}
			return x
		}
		for l, tl := range target {
			a, b := find(l), find(tl)
			parent[max(a, b)] = min(a, b)
		}
		s := &part2Root{}
		ids, to := unionRelabel(s.merge(items, 0))
		for _, l := range logicals {
			if got, want := relabel(ids, to, l), find(l); got != want {
				t.Fatalf("trial %d: logical %d relabels to %d, union-find says %d", trial, l, got, want)
			}
		}
	}
}

// TestPart2CensusOnTwoComponentView: on a view split into two
// components, the census that rides Part 2 reaches every node sorted and
// complete, RootFrag is node 0's fragment, and Connected is false.
func TestPart2CensusOnTwoComponentView(t *testing.T) {
	// Two 30-cycles joined by a bridge {0, 30}; the view erases the
	// bridge and varies the other weights. Part 1 stops at fragments of
	// about √61 nodes, so Part 2 merges several per component.
	g := graph.New(60)
	for i := 0; i < 30; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%30), 1)
		g.MustAddEdge(graph.NodeID(30+i), graph.NodeID(30+(i+1)%30), 1)
	}
	g.MustAddEdge(0, 30, 1)
	g.SortAdjacency()
	var mu sync.Mutex
	results := make([]*Result, g.N())
	stats, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
		tags := new(proto.Tags)
		bfs := proto.BuildBFS(nd, 0, tags)
		weight := func(p int) int64 {
			if (nd.ID() < 30) != (nd.Peer(p) < 30) {
				return 0
			}
			return 1 + int64(nd.EdgeID(p)%7)
		}
		res := RunWeighted(nd, bfs, nil, weight, 0, 9, tags)
		mu.Lock()
		results[nd.ID()] = res
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Leftover != 0 {
		t.Fatalf("left %d messages", stats.Leftover)
	}
	distinct := map[int64]bool{}
	for _, r := range results {
		distinct[r.FragID] = true
	}
	var want []int64
	for f := range distinct {
		want = append(want, f)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(want) < 4 {
		t.Fatalf("only %d fragments; the view should leave several", len(want))
	}
	for v, r := range results {
		if fmt.Sprint(r.AllFrags) != fmt.Sprint(want) {
			t.Fatalf("node %d census %v, want %v", v, r.AllFrags, want)
		}
		if r.RootFrag != results[0].FragID {
			t.Fatalf("node %d RootFrag %d, node 0's fragment %d", v, r.RootFrag, results[0].FragID)
		}
		if r.Connected {
			t.Fatalf("node %d believes the view is connected", v)
		}
	}
}

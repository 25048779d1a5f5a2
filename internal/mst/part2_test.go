package mst

import (
	"context"
	"fmt"
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
// edges, checking that the done item comes last.
func floodDone(t *testing.T, flood []proto.Item) (done proto.Item, census []int64, edges int) {
	t.Helper()
	if len(flood) == 0 || flood[len(flood)-1].A != itemDone {
		t.Fatalf("flood does not end with a done item: %v", flood)
	}
	for _, it := range flood[:len(flood)-1] {
		switch it.A {
		case itemFrag:
			census = append(census, it.B)
		case itemEdge:
			edges++
		case itemDone:
			t.Fatalf("second done item in %v", flood)
		}
	}
	return flood[len(flood)-1], census, edges
}

// TestPart2RootEndsAtOneComponent: when one iteration's unions join
// every census fragment, the same flood carries done, the sorted census
// and the root's fragment.
func TestPart2RootEndsAtOneComponent(t *testing.T) {
	s := &part2Root{rootFrag: 7}
	items := []proto.Item{
		censusItem(11), censusItem(2), censusItem(7),
		part2Cand(0, 1, 2, 7, 2, 2, 7, 7),    // 2 -> 7
		part2Cand(0, 1, 7, 2, 7, 7, 2, 2),    // 7 -> 2, the same edge
		part2Cand(0, 3, 11, 7, 11, 11, 7, 7), // 11 -> 7
	}
	done, census, edges := floodDone(t, s.merge(items, 0))
	if done.B != 1 || done.C != 7 {
		t.Fatalf("done item %+v, want B=1 (over) and C=7 (root fragment)", done)
	}
	if fmt.Sprint(census) != "[2 7 11]" {
		t.Fatalf("census %v, want [2 7 11]", census)
	}
	if edges != 2 {
		t.Fatalf("%d chosen edges, want 2", edges)
	}
}

// TestPart2RootWaitsForSilentFragment: a census fragment that sends no
// candidate stays its own logical fragment, so the unions of the others
// must not end Part 2; the next, candidate-free iteration does.
func TestPart2RootWaitsForSilentFragment(t *testing.T) {
	s := &part2Root{rootFrag: 2}
	items := []proto.Item{
		censusItem(2), censusItem(7), censusItem(11),
		part2Cand(0, 1, 2, 7, 2, 2, 7, 7),
		part2Cand(0, 1, 7, 2, 7, 7, 2, 2),
	}
	done, census, edges := floodDone(t, s.merge(items, 0))
	if done.B != 0 || len(census) != 0 || edges != 1 {
		t.Fatalf("iteration 0 ended Part 2 early: done %+v, census %v, %d edges", done, census, edges)
	}
	done, census, edges = floodDone(t, s.merge(nil, 1))
	if done.B != 1 || done.C != 2 || fmt.Sprint(census) != "[2 7 11]" || edges != 0 {
		t.Fatalf("candidate-free iteration: done %+v, census %v, %d edges", done, census, edges)
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

package mst

import (
	"context"
	"sync"
	"testing"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/proto"
)

// TestPart2TwoComponentView: on a view split into two components, each
// with several fragments, every node returns Connected=false right
// after Part 2 and no message is left unconsumed.
func TestPart2TwoComponentView(t *testing.T) {
	// Two 30-cycles joined by a bridge {0, 30}; the view erases the
	// bridge and varies the other weights. Part 1 stops at fragments of
	// about √60 nodes, so each component holds several.
	g := graph.New(60)
	for i := 0; i < 30; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%30), 1)
		g.MustAddEdge(graph.NodeID(30+i), graph.NodeID(30+(i+1)%30), 1)
	}
	g.MustAddEdge(0, 30, 1)
	g.SortAdjacency()
	view := make([]int64, g.M())
	for i, e := range g.Edges() {
		if (e.U < 30) == (e.V < 30) {
			view[i] = 1 + int64(e.ID%7)
		}
	}
	for v, r := range collectWeighted(t, g, nil, view, 9) {
		if r.Connected {
			t.Fatalf("node %d believes the view is connected", v)
		}
	}
}

// bridgedExpander joins two 6-regular random graphs on half nodes each
// by one bridge {0, half}.
func bridgedExpander(half int, seed int64) *graph.Graph {
	g := graph.New(2 * half)
	for side := 0; side < 2; side++ {
		off := graph.NodeID(side * half)
		for _, e := range graph.RandomRegular(half, 6, seed+int64(side)).Edges() {
			g.MustAddEdge(e.U+off, e.V+off, e.W)
		}
	}
	g.MustAddEdge(0, graph.NodeID(half), 1)
	g.SortAdjacency()
	return g
}

// TestUpcastForwardsAtMostFragmentsMinusOne: Part 2's cycle filter keeps
// every node's upcast within F−1 edges for F fragments, and node 0's
// forest spans them, on inputs whose fragment graphs hold many more
// outer edges than that. A size cap of 4 leaves many small fragments.
func TestUpcastForwardsAtMostFragmentsMinusOne(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"path":     graph.Path(64),
		"cycle":    graph.Cycle(64),
		"torus":    graph.Torus(10, 10),
		"expander": bridgedExpander(64, 3),
	} {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			sent := make([]int, g.N())
			frags := map[int64]bool{}
			var inter int
			stats, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
				tags := new(proto.Tags)
				r := &runner{nd: nd, bfs: proto.BuildBFS(nd, 0, tags), cap: 4, seed: 5, tags: tags}
				st := r.part1()
				edges, _, connected := r.part2(st)
				if !connected {
					t.Errorf("node %d: Part 2 reports a connected graph as disconnected", nd.ID())
				}
				mu.Lock()
				defer mu.Unlock()
				sent[nd.ID()] = r.upSent
				frags[st.fragID] = true
				inter = len(edges)
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Leftover != 0 {
				t.Fatalf("left %d messages", stats.Leftover)
			}
			f := len(frags)
			if f < 8 {
				t.Fatalf("only %d fragments; the input should leave several", f)
			}
			if inter != f-1 {
				t.Fatalf("%d inter-fragment edges for %d fragments", inter, f)
			}
			for v, s := range sent {
				if s > f-1 {
					t.Fatalf("node %d forwarded %d edges, above F−1 = %d", v, s, f-1)
				}
			}
		})
	}
}

package respect

import (
	"sync"
	"testing"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/partition"
	"distmincut/internal/proto"
	"distmincut/internal/tree"
)

// TestStep4MatchesSequentialSkeleton cross-checks the distributed
// Step 4 (merging nodes, T'_F) against the sequential reference
// (partition.BuildSkeleton) on externally partitioned trees.
func TestStep4MatchesSequentialSkeleton(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := graph.GNP(60, 0.1, seed)
		parentArr, parentEdge := graph.RandomSpanningTree(g, 0, seed+3)
		tr, err := tree.New(0, parentArr, parentEdge)
		if err != nil {
			t.Fatal(err)
		}
		d := partition.Split(tr, 0)
		sk := partition.BuildSkeleton(tr, d)

		parentPorts := make([]int, g.N())
		childPorts := make([][]int, g.N())
		for v := 0; v < g.N(); v++ {
			nv := graph.NodeID(v)
			parentPorts[v] = -1
			if tr.Parent(nv) >= 0 {
				parentPorts[v] = g.PortOf(nv, tr.ParentEdge(nv))
			}
			for _, c := range tr.Children(nv) {
				childPorts[v] = append(childPorts[v], g.PortOf(nv, tr.ParentEdge(c)))
			}
		}
		var mu sync.Mutex
		outs := make([]*Output, g.N())
		_, err = congest.Run(g, congest.Options{Seed: seed}, func(nd *congest.Node) {
			tags := new(proto.Tags)
			bfs := proto.BuildBFS(nd, 0, tags)
			in := Bootstrap(nd, bfs, parentPorts[nd.ID()], childPorts[nd.ID()], d.FragOf[nd.ID()], tags)
			out := Run(nd, in, tags)
			mu.Lock()
			outs[nd.ID()] = out
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		// Merging node lists must coincide.
		got := outs[0].MergingNodes
		want := sk.Merging
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d merging nodes distributed, %d sequential (%v vs %v)",
				seed, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: merging[%d] = %d, want %d", seed, i, got[i], want[i])
			}
		}
		// T'_F parent maps must coincide on the common membership.
		if len(outs[0].TPrime) != len(sk.Parent) {
			t.Fatalf("seed %d: |T'F| = %d distributed, %d sequential", seed, len(outs[0].TPrime), len(sk.Parent))
		}
		for v, p := range sk.Parent {
			if gp, ok := outs[0].TPrime[v]; !ok || gp != p {
				t.Fatalf("seed %d: T'F parent of %d = %d, want %d", seed, v, gp, p)
			}
		}
		// Per-node merging flags agree with the list.
		inList := map[graph.NodeID]bool{}
		for _, m := range got {
			inList[m] = true
		}
		for v := 0; v < g.N(); v++ {
			if outs[v].Merging != inList[graph.NodeID(v)] {
				t.Fatalf("seed %d: node %d merging flag %v, list %v", seed, v, outs[v].Merging, inList[graph.NodeID(v)])
			}
		}
	}
}

package mst

import (
	"context"
	"fmt"
	"testing"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/proto"
)

// TestDebugDeadlockTrace is a diagnostic for protocol hangs: it records
// a phase mark per node and dumps the last mark of every node when the
// run errors. Kept in the suite as cheap insurance — it fails only if
// the pipeline deadlocks.
func TestDebugDeadlockTrace(t *testing.T) {
	g := graph.Cycle(24)
	stats, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
		tags := new(proto.Tags)
		bfs := proto.BuildBFS(nd, 0, tags)
		nd.Mark(fmt.Sprintf("bfs-done:%d", nd.ID()))
		r := &runner{nd: nd, bfs: bfs, cap: SizeCap(nd.N()), seed: 11, tags: tags}
		st := r.part1()
		nd.Mark(fmt.Sprintf("part1-done:%d frag=%d", nd.ID(), st.fragID))
		inter, rootFrag, _ := r.part2(st)
		nd.Mark(fmt.Sprintf("part2-done:%d inter=%d", nd.ID(), len(inter)))
		r.root(st, inter, rootFrag)
		nd.Mark(fmt.Sprintf("root-done:%d", nd.ID()))
	})
	if err != nil {
		last := map[graph.NodeID]string{}
		for _, m := range stats.Marks {
			last[m.Node] = fmt.Sprintf("%s @r%d", m.Label, m.Round)
		}
		for v := 0; v < g.N(); v++ {
			t.Logf("node %2d: %s", v, last[graph.NodeID(v)])
		}
		t.Fatal(err)
	}
}

package baseline

import (
	"testing"

	"distmincut/internal/graph"
)

func TestCentralizeExact(t *testing.T) {
	workloads := []*graph.Graph{
		graph.Cycle(20),
		graph.PlantedCut(12, 12, 3, 0.5, 3),
		graph.AssignWeights(graph.GNP(24, 0.3, 4), 1, 9, 5),
	}
	for i, g := range workloads {
		want, _, err := StoerWagner(g)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := Centralize(g)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workload %d: centralize %d, want %d", i, got, want)
		}
		// Round cost is Θ(m + D): must be at least m/maxdeg-ish; just
		// assert it is at least m/2 here (each edge crosses the root's
		// incident link region pipelined).
		if stats.Rounds < g.M()/g.N() {
			t.Fatalf("workload %d: %d rounds suspiciously low for m=%d", i, stats.Rounds, g.M())
		}
		if stats.Leftover != 0 {
			t.Fatalf("workload %d: leftover %d", i, stats.Leftover)
		}
	}
}

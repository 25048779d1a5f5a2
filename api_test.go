package distmincut

import (
	"errors"
	"testing"

	"distmincut/internal/baseline"
	"distmincut/internal/graph"
	"distmincut/internal/verify"
)

func TestMinCutExactMatchesStoerWagner(t *testing.T) {
	workloads := map[string]*graph.Graph{
		"planted2":   graph.PlantedCut(12, 14, 2, 0.5, 3),
		"planted4":   graph.PlantedCut(12, 12, 4, 0.7, 4),
		"cycle":      graph.Cycle(18),
		"weighted":   graph.AssignWeights(graph.Cycle(14), 1, 6, 5),
		"cliquepath": graph.CliquePath(3, 6, 2),
	}
	for name, g := range workloads {
		t.Run(name, func(t *testing.T) {
			want, _, err := baseline.StoerWagner(g)
			if err != nil {
				t.Fatal(err)
			}
			res, err := MinCut(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Exact {
				t.Fatal("result not certified exact")
			}
			if res.Value != want {
				t.Fatalf("MinCut = %d, Stoer–Wagner %d", res.Value, want)
			}
			w, err := verify.CutSides(g, res.Side)
			if err != nil || w != want {
				t.Fatalf("side invalid: weight %d err %v", w, err)
			}
			if res.Rounds <= 0 || res.Messages <= 0 {
				t.Fatal("missing complexity accounting")
			}
		})
	}
}

func TestApproxMinCutQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("full sampling descent is slow (dominates the -race gate)")
	}
	// λ = 39 exceeds κ(0.5, 40) = 18, forcing at least one sampling
	// level (a planted cut would not do: isolating one node there is
	// cheaper than the planted crossing and falls below κ).
	g := graph.Complete(40)
	want, _, err := baseline.StoerWagner(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ApproxMinCut(g, &Options{Epsilon: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels < 1 {
		t.Fatalf("expected sampling to engage, levels = %d", res.Levels)
	}
	if res.Value < want {
		t.Fatalf("approx cut %d below optimum %d — not a real cut?", res.Value, want)
	}
	if float64(res.Value) > 1.5*float64(want) {
		t.Fatalf("approx cut %d exceeds (1+ε)·λ = %.0f", res.Value, 1.5*float64(want))
	}
	w, err := verify.CutSides(g, res.Side)
	if err != nil || w != res.Value {
		t.Fatalf("side weight %d != reported %d (err %v)", w, res.Value, err)
	}
}

func TestApproxMinCutExactWhenSmall(t *testing.T) {
	g := graph.PlantedCut(12, 12, 2, 0.5, 9)
	res, err := ApproxMinCut(g, &Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Value != 2 || res.Levels != 0 {
		t.Fatalf("small cut should be exact at level 0: %+v", res)
	}
}

func TestOneRespectingCut(t *testing.T) {
	g := graph.PlantedCut(12, 12, 3, 0.5, 11)
	lambda, _, err := baseline.StoerWagner(g)
	if err != nil {
		t.Fatal(err)
	}
	res, perNode, err := OneRespectingCut(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value < lambda {
		t.Fatalf("1-respecting cut %d below λ %d", res.Value, lambda)
	}
	if len(perNode) != g.N() {
		t.Fatalf("perNode has %d entries", len(perNode))
	}
	w, err := verify.CutSides(g, res.Side)
	if err != nil || w != res.Value {
		t.Fatalf("side weight %d != value %d (err %v)", w, res.Value, err)
	}
	// Every node's C(v↓) is at least the best.
	for v, c := range perNode {
		if v != 0 && c < res.Value {
			t.Fatalf("node %d has C(v↓)=%d below reported best %d", v, c, res.Value)
		}
	}
}

func TestBadInput(t *testing.T) {
	if _, err := MinCut(graph.New(1), nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("singleton accepted: %v", err)
	}
	disc := graph.New(4)
	disc.MustAddEdge(0, 1, 1)
	disc.MustAddEdge(2, 3, 1)
	if _, err := MinCut(disc, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("disconnected accepted: %v", err)
	}
	if _, err := ApproxMinCut(graph.New(0), nil); !errors.Is(err, ErrBadInput) {
		t.Fatal("empty accepted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g := graph.PlantedCut(10, 12, 3, 0.6, 13)
	a, err := MinCut(g, &Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MinCut(g, &Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value || a.Rounds != b.Rounds || a.Messages != b.Messages {
		t.Fatalf("same seed, different runs: %+v vs %+v", a, b)
	}
}

package baseline

import (
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/proto"
)

// TestMatulaRatioBand: Matula must return a value in [λ, (2+ε)λ] on
// every workload (the lower bound is unconditional — contraction never
// decreases the min cut; the upper bound is the algorithm's guarantee).
func TestMatulaRatioBand(t *testing.T) {
	const eps = 0.5
	workloads := map[string]*graph.Graph{
		"cycle":      graph.Cycle(20),
		"clique":     graph.Complete(12),
		"planted2":   graph.PlantedCut(12, 14, 2, 0.5, 3),
		"planted5":   graph.PlantedCut(10, 10, 5, 0.7, 4),
		"hypercube":  graph.Hypercube(4),
		"barbell":    graph.Barbell(7, 3),
		"cliquepath": graph.CliquePath(4, 6, 2),
		"weighted":   graph.AssignWeights(graph.GNP(20, 0.4, 5), 1, 8, 6),
		"gnp":        graph.GNP(40, 0.2, 7),
	}
	for name, g := range workloads {
		t.Run(name, func(t *testing.T) {
			lambda, _, err := StoerWagner(g)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Matula(g, eps)
			if err != nil {
				t.Fatal(err)
			}
			if got < lambda {
				t.Fatalf("Matula %d below λ %d — impossible by contraction safety", got, lambda)
			}
			if float64(got) > (2+eps)*float64(lambda)+1e-9 {
				t.Fatalf("Matula %d exceeds (2+ε)λ = %.1f", got, (2+eps)*float64(lambda))
			}
		})
	}
}

func TestMatulaProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%25) + 4
		g := graph.GNP(n, 0.3, seed)
		lambda, _, err := StoerWagner(g)
		if err != nil {
			return false
		}
		got, err := Matula(g, 0.25)
		if err != nil {
			return false
		}
		return got >= lambda && float64(got) <= 2.25*float64(lambda)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMatulaTooSmall(t *testing.T) {
	if _, err := Matula(graph.New(1), 0.5); !errors.Is(err, ErrTooSmall) {
		t.Fatal("singleton accepted")
	}
}

func TestGhaffariKuhnEmulated(t *testing.T) {
	g := graph.PlantedCut(12, 12, 3, 0.6, 9)
	lambda, _, err := StoerWagner(g)
	if err != nil {
		t.Fatal(err)
	}
	v, rounds, err := GhaffariKuhnEmulated(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if v < lambda || float64(v) > 2.5*float64(lambda) {
		t.Fatalf("GK emulation value %d outside [λ, 2.5λ], λ=%d", v, lambda)
	}
	if rounds <= 0 {
		t.Fatal("GK emulation must bill rounds")
	}
}

// TestSuApproximation: Su's algorithm must return a valid cut within
// (1+ε)-ish of λ but reports via sampling (level >= 1) even for tiny
// cuts — the paper's stated drawback versus the exact algorithm.
func TestSuApproximation(t *testing.T) {
	g := graph.PlantedCut(14, 14, 3, 0.7, 11)
	lambda, _, err := StoerWagner(g)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	results := make([]*SuResult, g.N())
	stats, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
		tags := new(proto.Tags)
		bfs := proto.BuildBFS(nd, 0, tags)
		r := Su(nd, bfs, g, 0.5, 7, tags)
		mu.Lock()
		results[nd.ID()] = r
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Leftover != 0 {
		t.Fatalf("Su left %d messages unconsumed", stats.Leftover)
	}
	r := results[0]
	if r.Value < lambda {
		t.Fatalf("Su cut %d below λ %d — not a real cut", r.Value, lambda)
	}
	if float64(r.Value) > 2.0*float64(lambda) {
		t.Fatalf("Su cut %d more than 2λ (λ=%d) — quality off", r.Value, lambda)
	}
	side := make([]bool, g.N())
	for v := range side {
		side[v] = results[v].Side
	}
	if got := g.CutWeight(side); got != r.Value {
		t.Fatalf("Su side weighs %d, reported %d", got, r.Value)
	}
}

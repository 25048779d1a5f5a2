package distmincut

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"distmincut/internal/baseline"
	"distmincut/internal/graph"
	"distmincut/internal/packing"
	"distmincut/internal/sampling"
	"distmincut/internal/verify"
)

// TestMinCutPropertyAgainstStoerWagner is the repository's end-to-end
// property: on arbitrary random weighted graphs, with the payload guard
// on, every tier agrees with the Stoer–Wagner minimum λ:
//   - the full exact pipeline (BFS + MST + packing + Theorem 2.1 + side
//     marking) returns exactly λ with a valid side;
//   - ApproxMinCut returns λ ≤ value ≤ (1+ε)·λ with a side of that weight;
//   - BracketMinCut brackets λ ∈ [Lo, Hi] with a witness side of weight
//     Value.
//
// The inputs come from a fixed-seed source, so a failure reproduces.
func TestMinCutPropertyAgainstStoerWagner(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	const eps = 0.5
	f := func(seed int64, rawN uint8, rawW uint8) bool {
		n := int(rawN%18) + 4
		wHi := int64(rawW%6) + 1
		g := graph.AssignWeights(graph.GNP(n, 0.35, seed), 1, wHi, seed+1)
		want, _, err := baseline.StoerWagner(g)
		if err != nil {
			return false
		}
		opts := &Options{Seed: seed + 2, Epsilon: eps}
		// sideOK reports whether side is a proper cut weighing value.
		sideOK := func(tier string, side []bool, value int64) bool {
			w, err := verify.CutSides(g, side)
			if err != nil || w != value {
				t.Logf("%s n=%d seed=%d: side weighs %d (err %v), reported %d", tier, n, seed, w, err, value)
				return false
			}
			return true
		}

		res, err := MinCut(g, opts)
		if err != nil {
			t.Logf("exact n=%d seed=%d: %v", n, seed, err)
			return false
		}
		if !res.Exact || res.Value != want {
			t.Logf("exact n=%d seed=%d: got %d (exact=%v), want %d", n, seed, res.Value, res.Exact, want)
			return false
		}
		if !sideOK("exact", res.Side, res.Value) {
			return false
		}

		approx, err := ApproxMinCut(g, opts)
		if err != nil {
			t.Logf("approx n=%d seed=%d: %v", n, seed, err)
			return false
		}
		if approx.Value < want || float64(approx.Value) > (1+eps)*float64(want) {
			t.Logf("approx n=%d seed=%d: got %d, want within [%d, %.1f]", n, seed, approx.Value, want, (1+eps)*float64(want))
			return false
		}
		if !sideOK("approx", approx.Side, approx.Value) {
			return false
		}

		br, err := BracketMinCut(g, opts)
		if err != nil {
			t.Logf("bracket n=%d seed=%d: %v", n, seed, err)
			return false
		}
		if br.Lo > want || want > br.Hi {
			t.Logf("bracket n=%d seed=%d: [%d, %d] misses λ=%d", n, seed, br.Lo, br.Hi, want)
			return false
		}
		return sideOK("bracket", br.Side, br.Value)
	}
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDualityCertificateAgreesWithStoerWagner checks the packing's
// duality stop end to end. Over random weighted graphs and planted
// cuts, whenever MinCut or ApproxMinCut reports Certificate "duality",
// Stoer–Wagner agrees on Value and the side weighs Value. Graphs whose
// fractional packing number stays below λ−1 within the tree budget
// (cycle, torus, regular, complete) can never be proved that way: they
// report "trees" after PracticalTau(λ, n) trees, as before the stop
// existed. Weighted GNP with λ = 32 at ε = 0.5 lies past level 0's cap
// of 16, where the loads prove λ > cap long before PracticalTau(cap)
// trees: level 0 gives up early and the descent still lands on the
// same Value at level 1.
func TestDualityCertificateAgreesWithStoerWagner(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	fired := 0
	check := func(name string, g *graph.Graph, seed int64) {
		t.Helper()
		want, _, err := baseline.StoerWagner(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, tier := range []struct {
			name string
			run  func(*graph.Graph, *Options) (*Result, error)
		}{{"exact", MinCut}, {"approx", ApproxMinCut}} {
			r, err := tier.run(g, &Options{Seed: seed, Epsilon: 0.5})
			if err != nil {
				t.Fatalf("%s %s: %v", name, tier.name, err)
			}
			if r.Certificate != "duality" {
				continue
			}
			fired++
			if !r.Exact || r.Value != want {
				t.Errorf("%s %s: duality-certified %d (exact %v), Stoer–Wagner %d", name, tier.name, r.Value, r.Exact, want)
			}
			if w, err := verify.CutSides(g, r.Side); err != nil || w != r.Value {
				t.Errorf("%s %s: side weighs %d (err %v), reported %d", name, tier.name, w, err, r.Value)
			}
		}
	}
	for seed := int64(0); seed < 24; seed++ {
		n := 10 + int(seed%12)
		wHi := 1 + seed%6
		check(fmt.Sprintf("gnp-%d-seed%d", n, seed),
			graph.AssignWeights(graph.GNP(n, 0.3+0.05*float64(seed%4), seed), 1, wHi, seed+1), seed+2)
		planted := graph.PlantedCut(8+int(seed%6), 8+int(seed%5), 1+int(seed%4), 0.6, seed)
		check(fmt.Sprintf("planted-seed%d", seed), planted, seed+2)
		check(fmt.Sprintf("planted-w-seed%d", seed), graph.AssignWeights(planted, 1, wHi, seed+3), seed+2)
	}
	if fired == 0 {
		t.Fatal("the duality certificate never fired")
	}
	t.Logf("duality certificate fired on %d runs", fired)

	for name, g := range map[string]*graph.Graph{
		"cycle-40":      graph.Cycle(40),
		"torus-6x6":     graph.Torus(6, 6),
		"regular-40-12": graph.RandomRegular(40, 12, 3),
		"complete-8":    graph.Complete(8),
	} {
		want, _, err := baseline.StoerWagner(g)
		if err != nil {
			t.Fatal(err)
		}
		r, err := MinCut(g, &Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if r.Value != want || r.Certificate != "trees" || r.TreesPacked != packing.PracticalTau(want, g.N()) {
			t.Errorf("%s: value %d, certificate %q, %d trees; want %d, \"trees\", %d",
				name, r.Value, r.Certificate, r.TreesPacked, want, packing.PracticalTau(want, g.N()))
		}
	}

	g := graph.AssignWeights(graph.GNP(30, 0.2, 5), 1, 50, 6)
	lambdaCap := int64(1)
	for lambdaCap*2 <= sampling.Kappa(0.5, g.N()) {
		lambdaCap *= 2
	}
	r, err := ApproxMinCut(g, &Options{Seed: 1, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 32 || r.Levels != 1 || r.Exact || r.Certificate != "" {
		t.Errorf("weighted GNP at ε = 0.5: value %d at level %d (exact %v, certificate %q), want 32 at level 1, inexact",
			r.Value, r.Levels, r.Exact, r.Certificate)
	}
	if r.TreesPacked >= packing.PracticalTau(lambdaCap, g.N()) {
		t.Errorf("weighted GNP at ε = 0.5: %d trees, want level 0 stopped by the λ > %d proof before %d trees",
			r.TreesPacked, lambdaCap, packing.PracticalTau(lambdaCap, g.N()))
	}
}

// TestTreesPackedMatchesSequentialCertificate: on planted cuts where
// the sequential reference certifies λ before PracticalTau(λ) trees,
// MinCut stops on the duality proof at exactly that count.
func TestTreesPackedMatchesSequentialCertificate(t *testing.T) {
	below := 0
	for seed := int64(0); seed < 6; seed++ {
		g := graph.PlantedCut(12, 12, 2+int(seed%3), 0.6, seed+20)
		lambda, _, err := baseline.StoerWagner(g)
		if err != nil {
			t.Fatal(err)
		}
		tau := packing.PracticalTau(lambda, g.N())
		cert, err := packing.TreesUntilCertified(g, lambda, tau)
		if err != nil {
			t.Fatal(err)
		}
		if cert >= tau {
			continue
		}
		below++
		r, err := MinCut(g, &Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if r.Value != lambda || r.TreesPacked != cert || r.Certificate != "duality" {
			t.Errorf("seed %d: value %d after %d trees (certificate %q), want %d after TreesUntilCertified's %d, \"duality\"",
				seed, r.Value, r.TreesPacked, r.Certificate, lambda, cert)
		}
	}
	if below == 0 {
		t.Fatal("no planted graph certified below the τ rule")
	}
}

func TestWeightCapRejected(t *testing.T) {
	g := NewGraph(2)
	g.MustAddEdge(0, 1, MaxWeight+1)
	if _, err := MinCut(g, nil); err == nil {
		t.Fatal("oversized weight accepted")
	}
}

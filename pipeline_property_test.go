package distmincut

import (
	"math/rand"
	"testing"
	"testing/quick"

	"distmincut/internal/baseline"
	"distmincut/internal/graph"
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

func TestWeightCapRejected(t *testing.T) {
	g := NewGraph(2)
	g.MustAddEdge(0, 1, MaxWeight+1)
	if _, err := MinCut(g, nil); err == nil {
		t.Fatal("oversized weight accepted")
	}
}

package distmincut

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"distmincut/internal/graph"
)

// The exact outcome table pins what MinCut and ApproxMinCut answer —
// Value, Side, Exact, TreesPacked and Levels — on eight graph families
// under seeds 1–4. The entry-point golden suite pins four small graphs
// under one seed, so without this table a change to the packing loop
// (when it stops, what it certifies) could move the tree count or the
// exactness verdict unseen. A change to how the packing is driven, not
// to what each tree computes, must pass it unchanged. Deleting the file
// and running the test records it afresh (and fails once, so a
// re-record is never silent).

const exactOutcomeFile = "testdata/exact_outcomes.json"

// exactOutcome is the part of a Result that the packing decides.
type exactOutcome struct {
	Value       int64
	Side        string // one '0'/'1' per node
	Exact       bool
	TreesPacked int
	Levels      int
}

// exactFamilies spans λ = 1 (path), λ = 2 (cycle), a planted cut far
// below the minimum degree, an expander, a torus and a small complete
// graph. The weighted GNP graph has λ = 32: at ε = 0.5 that is past the
// exact search's cap of 16, so ApproxMinCut gives up at level 0 and
// descends; at ε = 0.3 it sits exactly at the cap of 32.
func exactFamilies() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"planted-24-24-3": graph.PlantedCut(24, 24, 3, 0.4, 7),
		"gnp-30-w":        graph.AssignWeights(graph.GNP(30, 0.2, 5), 1, 50, 6),
		"regular-40-12":   graph.RandomRegular(40, 12, 3),
		"cycle-40":        graph.Cycle(40),
		"torus-6x6":       graph.Torus(6, 6),
		"path-24":         graph.Path(24),
		"complete-8":      graph.Complete(8),
	}
}

// TestExactOutcomesPinned runs MinCut and ApproxMinCut at ε = 0.3 and
// 0.5 on every family under seeds 1–4, plus the band case
// Complete(36) at ε = 0.3 (κ = 44 > λ = 35, but the exact search is
// capped at 2^⌊log₂ κ⌋ = 32, so level 0 is not exact) under seed 1,
// and requires each outcome to equal the recorded one.
func TestExactOutcomesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("about 25 s of CPU; make determinism runs it under GOMAXPROCS=1 and 2")
	}
	var mu sync.Mutex
	got := map[string]exactOutcome{}
	record := func(t *testing.T, name string, r *Result, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var side strings.Builder
		for _, in := range r.Side {
			if in {
				side.WriteByte('1')
			} else {
				side.WriteByte('0')
			}
		}
		mu.Lock()
		defer mu.Unlock()
		got[name] = exactOutcome{
			Value: r.Value, Side: side.String(), Exact: r.Exact,
			TreesPacked: r.TreesPacked, Levels: r.Levels,
		}
	}
	// The families run as parallel subtests; the group returns once all
	// of them have recorded.
	t.Run("run", func(t *testing.T) {
		for fam, g := range exactFamilies() {
			t.Run(fam, func(t *testing.T) {
				t.Parallel()
				for seed := int64(1); seed <= 4; seed++ {
					r, err := MinCut(g, &Options{Seed: seed})
					record(t, fmt.Sprintf("%s/exact/seed%d", fam, seed), r, err)
					for _, eps := range []float64{0.3, 0.5} {
						r, err := ApproxMinCut(g, &Options{Seed: seed, Epsilon: eps})
						record(t, fmt.Sprintf("%s/approx-%g/seed%d", fam, eps, seed), r, err)
					}
				}
			})
		}
		t.Run("complete-36", func(t *testing.T) {
			t.Parallel()
			r, err := ApproxMinCut(graph.Complete(36), &Options{Seed: 1, Epsilon: 0.3})
			record(t, "complete-36/approx-0.3/seed1", r, err)
		})
	})
	if t.Failed() {
		return
	}

	raw, err := os.ReadFile(exactOutcomeFile)
	if os.IsNotExist(err) {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(exactOutcomeFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %d exact outcomes to %s; rerun to check them", len(got), exactOutcomeFile)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]exactOutcome
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("outcome file has %d cases, suite ran %d", len(want), len(got))
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: in outcome file but not run", name)
			continue
		}
		if g != want[name] {
			t.Errorf("%s: got %+v, want %+v", name, g, want[name])
		}
	}
}

package main

import (
	"strings"
	"testing"

	"distmincut"
	"distmincut/internal/graph"
)

// TestCheckRejectsInconsistentResults: the cross-check must catch a
// side whose weight differs from the reported value, a degenerate
// side, and a value below λ in every mode — not only exact mode.
func TestCheckRejectsInconsistentResults(t *testing.T) {
	g := graph.Cycle(6) // λ = 2
	side := []bool{true, true, true, false, false, false}
	for _, mode := range []string{"exact", "approx", "respect"} {
		if err := check(g, mode, &distmincut.Result{Value: 2, Side: side}, 2); err != nil {
			t.Fatalf("%s: valid minimum cut rejected: %v", mode, err)
		}
		cases := []struct {
			name   string
			res    *distmincut.Result
			lambda int64
			want   string
		}{
			{"wrong value", &distmincut.Result{Value: 3, Side: side}, 2, "weighs 2"},
			{"degenerate side", &distmincut.Result{Value: 0, Side: make([]bool, 6)}, 2, "invalid"},
			// As if Stoer–Wagner had found a heavier minimum.
			{"below lambda", &distmincut.Result{Value: 2, Side: side}, 3, "below"},
		}
		for _, c := range cases {
			err := check(g, mode, c.res, c.lambda)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s/%s: err = %v, want one mentioning %q", mode, c.name, err, c.want)
			}
		}
	}
	// Approx and respect may exceed λ; exact may not.
	heavy := []bool{true, false, true, false, true, false} // weight 6
	if err := check(g, "approx", &distmincut.Result{Value: 6, Side: heavy}, 2); err != nil {
		t.Fatalf("approx: heavier cut rejected: %v", err)
	}
	if err := check(g, "exact", &distmincut.Result{Value: 6, Side: heavy}, 2); err == nil {
		t.Fatal("exact: cut above λ accepted")
	}
}

package distmincut

import (
	"testing"

	"distmincut/internal/graph"
)

func TestPhaseGroup(t *testing.T) {
	cases := map[string]string{
		"bfs":       "bfs",
		"mst:part1": "mst",
		"level:3":   "level",
		"bracket:7": "bracket",
		"pack":      "pack",
	}
	for name, want := range cases {
		if got := PhaseGroup(name); got != want {
			t.Errorf("PhaseGroup(%q) = %q, want %q", name, got, want)
		}
	}
}

// checkSpanTree asserts the structural invariants every span tree must
// satisfy: boundaries ordered within each span, children contained in
// their parent and tiled in order, and siblings non-overlapping.
func checkSpanTree(t *testing.T, spans []*Span, parent *Span) {
	t.Helper()
	prevEnd := -1
	for _, sp := range spans {
		if sp.EndRound < sp.StartRound || sp.EndMessages < sp.StartMessages || sp.EndNanos < sp.StartNanos {
			t.Errorf("span %s runs backwards: rounds [%d,%d] messages [%d,%d]",
				sp.Name, sp.StartRound, sp.EndRound, sp.StartMessages, sp.EndMessages)
		}
		if sp.StartRound < prevEnd {
			t.Errorf("span %s starts at round %d before its sibling ended at %d",
				sp.Name, sp.StartRound, prevEnd)
		}
		prevEnd = sp.EndRound
		if parent != nil {
			if sp.StartRound < parent.StartRound || sp.EndRound > parent.EndRound {
				t.Errorf("span %s [%d,%d] escapes parent %s [%d,%d]",
					sp.Name, sp.StartRound, sp.EndRound, parent.Name, parent.StartRound, parent.EndRound)
			}
		}
		checkSpanTree(t, sp.Children, sp)
	}
}

// names collects the top-level span names in order.
func names(spans []*Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// leafRounds sums Rounds over the tree's leaf spans.
func leafRounds(spans []*Span) int {
	total := 0
	for _, sp := range spans {
		if len(sp.Children) == 0 {
			total += sp.Rounds()
			continue
		}
		total += leafRounds(sp.Children)
	}
	return total
}

// TestExactSpansTileTheRun: the exact pipeline's top-level spans carry
// the expected phase names, nest properly, and account for (nearly)
// every round of the run — the inter-phase gaps are local computation,
// zero rounds, and the only untracked tail is the final result
// broadcast after node 0's last end mark.
func TestExactSpansTileTheRun(t *testing.T) {
	g := graph.PlantedCut(32, 32, 3, 0.4, 7)
	res, err := MinCut(g, &Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	spans := Spans(res.Stats)
	if len(spans) == 0 {
		t.Fatal("no spans reconstructed")
	}
	checkSpanTree(t, spans, nil)
	got := map[string]bool{}
	for _, n := range names(spans) {
		got[n] = true
	}
	for _, want := range []string{"bfs", "pack", "markside", "evalcut"} {
		if !got[want] {
			t.Errorf("missing top-level span %q in %v", want, names(spans))
		}
	}
	// pack must contain mst spans, and mst spans their parts.
	var foundMSTPart bool
	var walk func([]*Span)
	walk = func(sps []*Span) {
		for _, sp := range sps {
			if sp.Name == "mst:part1" {
				foundMSTPart = true
			}
			walk(sp.Children)
		}
	}
	walk(spans)
	if !foundMSTPart {
		t.Error("no mst:part1 span nested anywhere")
	}
	// Top-level spans tile the run: their union covers all but the
	// final broadcast tail.
	covered := 0
	for _, sp := range spans {
		covered += sp.Rounds()
	}
	if covered > res.Stats.Rounds {
		t.Fatalf("spans cover %d rounds, run had %d", covered, res.Stats.Rounds)
	}
	if frac := float64(covered) / float64(res.Stats.Rounds); frac < 0.95 {
		t.Fatalf("top-level spans cover %.1f%% of %d rounds, want >= 95%%",
			100*frac, res.Stats.Rounds)
	}
	// Leaf spans must never over-count the run.
	if lr := leafRounds(spans); lr > res.Stats.Rounds {
		t.Fatalf("leaf spans sum to %d rounds, run had %d", lr, res.Stats.Rounds)
	}
	// Message accounting: top-level spans' message spans are bounded by
	// the run's delivered total.
	for _, sp := range spans {
		if sp.Messages() < 0 || sp.EndMessages > res.Stats.Delivered {
			t.Errorf("span %s message bounds [%d,%d] vs delivered %d",
				sp.Name, sp.StartMessages, sp.EndMessages, res.Stats.Delivered)
		}
	}
}

// TestApproxSpansCarryLevels: the sampling pipeline wraps each
// descent/retreat packing level in a level:N span.
func TestApproxSpansCarryLevels(t *testing.T) {
	g := graph.PlantedCut(32, 32, 4, 0.5, 3)
	res, err := ApproxMinCut(g, &Options{Seed: 2, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	spans := Spans(res.Stats)
	checkSpanTree(t, spans, nil)
	levels := 0
	for _, sp := range spans {
		if PhaseGroup(sp.Name) == "level" {
			levels++
		}
	}
	if levels == 0 {
		t.Fatalf("no level:N spans in %v", names(spans))
	}
}

// TestBracketSpansCarryLevels: the bracket tier records the min-degree
// convergecast plus one span per sampling level.
func TestBracketSpansCarryLevels(t *testing.T) {
	g := graph.PlantedCut(32, 32, 4, 0.5, 3)
	res, err := BracketMinCut(g, &Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	spans := Spans(res.Stats)
	checkSpanTree(t, spans, nil)
	var sawMinDeg, sawBracket bool
	for _, sp := range spans {
		switch PhaseGroup(sp.Name) {
		case "mindeg":
			sawMinDeg = true
		case "bracket":
			sawBracket = true
		}
	}
	if !sawMinDeg || !sawBracket {
		t.Fatalf("bracket run spans %v lack mindeg/bracket phases", names(spans))
	}
}

// TestSpansAbortedRunStaysWellFormed: marks from a run killed by its
// round budget still parse into a well-formed (open spans closed at
// the abort boundary) tree.
func TestSpansAbortedRunStaysWellFormed(t *testing.T) {
	g := graph.PlantedCut(32, 32, 3, 0.4, 7)
	ref, err := MinCut(g, &Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = MinCut(g, &Options{Seed: 2, MaxRounds: ref.Stats.Rounds / 2})
	if err == nil {
		t.Fatal("half-budget run unexpectedly completed")
	}
	// The aborted run returns no stats; rebuild the scenario from the
	// reference by truncating its marks, the way a flight recorder
	// would have seen them.
	half := ref.Stats.Rounds / 2
	truncated := *ref.Stats
	truncated.Marks = nil
	truncated.Rounds = half
	for _, m := range ref.Stats.Marks {
		if m.Round <= half {
			truncated.Marks = append(truncated.Marks, m)
		}
	}
	spans := Spans(&truncated)
	if len(spans) == 0 {
		t.Fatal("no spans from truncated marks")
	}
	checkSpanTree(t, spans, nil)
	for _, sp := range spans {
		if sp.EndRound > half {
			t.Errorf("span %s closed at %d, past the abort at %d", sp.Name, sp.EndRound, half)
		}
	}
}

// TestSpansNilStats: nil stats yield nil spans.
func TestSpansNilStats(t *testing.T) {
	if got := Spans(nil); got != nil {
		t.Fatalf("Spans(nil) = %v", got)
	}
}

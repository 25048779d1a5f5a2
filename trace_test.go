package distmincut

import (
	"testing"

	"distmincut/internal/congest"
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
// their parent and tiled in order, and siblings of one lane
// non-overlapping (a forked lane's spans overlap the program lane's).
func checkSpanTree(t *testing.T, spans []*Span, parent *Span) {
	t.Helper()
	prevEnd := map[int]int{}
	for _, sp := range spans {
		if sp.EndRound < sp.StartRound || sp.EndMessages < sp.StartMessages || sp.EndNanos < sp.StartNanos {
			t.Errorf("span %s runs backwards: rounds [%d,%d] messages [%d,%d]",
				sp.Name, sp.StartRound, sp.EndRound, sp.StartMessages, sp.EndMessages)
		}
		if end, ok := prevEnd[sp.Lane]; ok && sp.StartRound < end {
			t.Errorf("span %s starts at round %d before its lane-%d sibling ended at %d",
				sp.Name, sp.StartRound, sp.Lane, end)
		}
		prevEnd[sp.Lane] = sp.EndRound
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

// leafRounds sums Rounds over the tree's leaf spans of one lane.
func leafRounds(spans []*Span, lane int) int {
	total := 0
	for _, sp := range spans {
		if len(sp.Children) == 0 {
			if sp.Lane == lane {
				total += sp.Rounds()
			}
			continue
		}
		total += leafRounds(sp.Children, lane)
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
	// pack must contain mst spans, and mst spans their parts; some mst
	// runs on the forked lane, directly under pack.
	var foundMSTPart, foundForkedMST bool
	var walk func(*Span, []*Span)
	walk = func(parent *Span, sps []*Span) {
		for _, sp := range sps {
			if sp.Name == "mst:part1" {
				foundMSTPart = true
			}
			if sp.Name == "mst" && sp.Lane == 1 && parent != nil && parent.Name == "pack" {
				foundForkedMST = true
			}
			walk(sp, sp.Children)
		}
	}
	walk(nil, spans)
	if !foundMSTPart {
		t.Error("no mst:part1 span nested anywhere")
	}
	if !foundForkedMST {
		t.Error("no forked-lane mst span directly under pack")
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
	// The leaf spans of one lane must never over-count the run.
	for lane := 0; lane < 2; lane++ {
		if lr := leafRounds(spans, lane); lr > res.Stats.Rounds {
			t.Fatalf("lane-%d leaf spans sum to %d rounds, run had %d", lane, lr, res.Stats.Rounds)
		}
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

// TestSpansNestForkedLane: marks of two interleaved lanes parse into
// one stack per lane. The forked lane's spans nest under the program
// lane's span open at its first mark, an end mark closes only spans of
// its own lane (end:respect leaves the forked mst open), and closing
// the parent closes a forked span still open under it.
func TestSpansNestForkedLane(t *testing.T) {
	mk := func(label string, round, lane int) congest.Mark {
		return congest.Mark{Label: label, Round: round, Lane: lane, Delivered: int64(10 * round), Nanos: int64(100 * round)}
	}
	stats := &congest.Stats{Rounds: 40, Delivered: 400, Marks: []congest.Mark{
		mk("begin:pack", 0, 0),
		mk("begin:mst", 0, 0), mk("end:mst", 10, 0),
		mk("begin:mst", 10, 1), mk("begin:mst:part1", 10, 1),
		mk("begin:respect", 10, 0), mk("end:respect", 18, 0),
		mk("end:mst:part1", 20, 1), mk("end:mst", 22, 1),
		mk("begin:mst", 22, 1),
		mk("begin:respect", 22, 0), mk("end:respect", 30, 0),
		mk("end:pack", 35, 0), // closes the forked mst left open
		mk("begin:markside", 35, 0), mk("end:markside", 40, 0),
	}}
	spans := Spans(stats)
	checkSpanTree(t, spans, nil)
	if got := names(spans); len(got) != 2 || got[0] != "pack" || got[1] != "markside" {
		t.Fatalf("top-level spans %v, want [pack markside]", got)
	}
	type want struct {
		name             string
		lane, start, end int
	}
	wants := []want{{"mst", 0, 0, 10}, {"mst", 1, 10, 22}, {"respect", 0, 10, 18}, {"mst", 1, 22, 35}, {"respect", 0, 22, 30}}
	kids := spans[0].Children
	if len(kids) != len(wants) {
		t.Fatalf("pack has %d children, want %d", len(kids), len(wants))
	}
	for i, w := range wants {
		k := kids[i]
		if k.Name != w.name || k.Lane != w.lane || k.StartRound != w.start || k.EndRound != w.end {
			t.Errorf("pack child %d = %s lane %d [%d,%d], want %s lane %d [%d,%d]",
				i, k.Name, k.Lane, k.StartRound, k.EndRound, w.name, w.lane, w.start, w.end)
		}
	}
	if part := kids[1].Children; len(part) != 1 || part[0].Name != "mst:part1" || part[0].EndRound != 20 || part[0].Lane != 1 {
		t.Errorf("forked mst children %+v, want one lane-1 mst:part1 ending at 20", part)
	}
	if m := kids[1].Messages(); m != 120 {
		t.Errorf("forked mst carries %d messages, want 120", m)
	}
}

// TestSpansNilStats: nil stats yield nil spans.
func TestSpansNilStats(t *testing.T) {
	if got := Spans(nil); got != nil {
		t.Fatalf("Spans(nil) = %v", got)
	}
}

package distmincut

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
)

// The golden suite pins every entry point's deterministic output —
// Stats counters, the (round, node)-ordered mark stream, and the cut —
// on four generator families. The cuts (Value, Side) in
// testdata/golden_entrypoints.json were recorded from the engine's
// goroutine-per-node execution path, before node programs moved onto
// the step scheduler, so they prove behaviour identity across that
// refactor without keeping the old code around. Deleting the file and
// running the test records it afresh (and fails once, so a re-record is
// never silent).
//
// A deliberate change in CONGEST complexity (fewer messages, fewer
// rounds) re-records with
//
//	go test . -run TestGoldenEntryPoints -golden.update
//
// which rewrites only the Stats counters and Marks: it refuses, without
// writing, if any case's Value or Side differs, and logs every changed
// record's old → new Rounds and Delivered.

const goldenEntryFile = "testdata/golden_entrypoints.json"

var goldenUpdate = flag.Bool("golden.update", false,
	"rewrite the Stats and Marks of "+goldenEntryFile+"; refuses if any Value or Side differs")

// goldenFamilies covers high diameter (path), low diameter (expander),
// clustered (planted community), and dense (complete) inputs.
func goldenFamilies() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":      graph.Path(24),
		"expander":  graph.RandomRegular(32, 4, 3),
		"community": graph.PlantedCut(12, 12, 2, 0.5, 7),
		"complete":  graph.Complete(8),
	}
}

// goldenOptions is the configuration every case runs under; case
// names keep the "serial" suffix they were recorded with.
var goldenOptions = Options{Seed: 5}

// goldenRecord is one case's deterministic fingerprint.
type goldenRecord struct {
	Rounds     int
	Sent       int64
	Delivered  int64
	Wakeups    int64
	Leftover   int64
	DirtyNodes int
	// Marks are "label@round/node/delivered", sorted by (round, node):
	// marks of different nodes in one round may be recorded in either
	// order, and wall time is not part of the deterministic accounting.
	Marks []string
	Value int64
	Side  string
}

func goldenOf(s *congest.Stats, value int64, side []bool) goldenRecord {
	marks := append([]congest.Mark(nil), s.Marks...)
	sort.SliceStable(marks, func(i, j int) bool {
		if marks[i].Round != marks[j].Round {
			return marks[i].Round < marks[j].Round
		}
		return marks[i].Node < marks[j].Node
	})
	rec := goldenRecord{
		Rounds:     s.Rounds,
		Sent:       s.Sent,
		Delivered:  s.Delivered,
		Wakeups:    s.Wakeups,
		Leftover:   s.Leftover,
		DirtyNodes: s.DirtyNodes,
		Marks:      make([]string, len(marks)),
		Value:      value,
	}
	for i, m := range marks {
		rec.Marks[i] = fmt.Sprintf("%s@%d/%d/%d", m.Label, m.Round, m.Node, m.Delivered)
	}
	b := make([]byte, len(side))
	for v, in := range side {
		b[v] = '0'
		if in {
			b[v] = '1'
		}
	}
	rec.Side = string(b)
	return rec
}

// goldenEntryPoints runs one entry point and fingerprints the result.
var goldenEntryPoints = map[string]func(g *graph.Graph, o *Options) (goldenRecord, error){
	"MinCut": func(g *graph.Graph, o *Options) (goldenRecord, error) {
		r, err := MinCut(g, o)
		if err != nil {
			return goldenRecord{}, err
		}
		return goldenOf(r.Stats, r.Value, r.Side), nil
	},
	"ApproxMinCut": func(g *graph.Graph, o *Options) (goldenRecord, error) {
		r, err := ApproxMinCut(g, o)
		if err != nil {
			return goldenRecord{}, err
		}
		return goldenOf(r.Stats, r.Value, r.Side), nil
	},
	"BracketMinCut": func(g *graph.Graph, o *Options) (goldenRecord, error) {
		r, err := BracketMinCut(g, o)
		if err != nil {
			return goldenRecord{}, err
		}
		return goldenOf(r.Stats, r.Value, r.Side), nil
	},
	"OneRespectingCut": func(g *graph.Graph, o *Options) (goldenRecord, error) {
		r, _, err := OneRespectingCut(g, o)
		if err != nil {
			return goldenRecord{}, err
		}
		return goldenOf(r.Stats, r.Value, r.Side), nil
	},
}

// checkGolden compares got against the recorded file, or records the
// file when it does not exist yet.
func checkGolden(t *testing.T, path string, got map[string]goldenRecord) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %d golden fingerprints to %s; rerun to check them", len(got), path)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if *goldenUpdate {
		updateGolden(t, path, want, got)
		return
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, suite ran %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: in golden file but not run", name)
			continue
		}
		if fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("%s diverged from golden:\n  got:  %+v\n  want: %+v", name, g, w)
		}
	}
}

// updateGolden rewrites path with got's Stats and Marks. It writes
// nothing unless got runs exactly the recorded cases and every Value
// and Side equals the recorded one.
func updateGolden(t *testing.T, path string, want, got map[string]goldenRecord) {
	t.Helper()
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	refused := len(want) != len(got)
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: in golden file but not run", name)
			refused = true
			continue
		}
		if w := want[name]; g.Value != w.Value || g.Side != w.Side {
			t.Errorf("%s: result changed (Value %d → %d, Side %s → %s)", name, w.Value, g.Value, w.Side, g.Side)
			refused = true
		}
	}
	if refused {
		t.Fatalf("refusing to re-record %s: only Stats and Marks may change", path)
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if g, w := got[name], want[name]; fmt.Sprint(g) != fmt.Sprint(w) {
			t.Logf("re-recorded %s: Rounds %d → %d, Delivered %d → %d", name, w.Rounds, g.Rounds, w.Delivered, g.Delivered)
		}
	}
}

// TestGoldenEntryPoints runs MinCut, ApproxMinCut, BracketMinCut and
// OneRespectingCut on every family with the payload guard on, and
// requires each fingerprint to equal the recorded one.
func TestGoldenEntryPoints(t *testing.T) {
	got := map[string]goldenRecord{}
	for entry, run := range goldenEntryPoints {
		for fam, g := range goldenFamilies() {
			name := entry + "/" + fam + "/serial"
			t.Run(name, func(t *testing.T) {
				o := goldenOptions
				rec, err := run(g, &o)
				if err != nil {
					t.Fatal(err)
				}
				got[name] = rec
			})
		}
	}
	checkGolden(t, goldenEntryFile, got)
}

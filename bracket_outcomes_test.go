package distmincut

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"

	"distmincut/internal/graph"
)

// The bracket outcome table pins what BracketMinCut answers — Level,
// Lo, Hi, Value and BestNode — on 20 graph families under seeds 0–7.
// The entry-point golden suite pins only Value and Side on four small
// graphs, so without this table a protocol change could move the
// sampled level or the bracket unseen. A change to the bracket's
// traffic (how connectivity is tested, not what is sampled) must pass
// it unchanged. Deleting the file and running the test records it
// afresh (and fails once, so a re-record is never silent).

const bracketOutcomeFile = "testdata/bracket_outcomes.json"

// bracketOutcome is the part of a BracketResult that is a function of
// the sampled skeletons alone.
type bracketOutcome struct {
	Level    int
	Lo, Hi   int64
	Value    int64
	BestNode graph.NodeID
}

// bracketFamilies spans high diameter (paths, cycles up to n=1024,
// grids, a path of cliques), low diameter (hypercubes, expanders, GNP),
// dense (complete) and weighted inputs, where the bracket descends more
// levels. The dense planted and clique-path graphs have a cut far below
// their minimum degree, so Hi comes from the sampled bound there.
func bracketFamilies() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path-64":         graph.Path(64),
		"path-512":        graph.Path(512),
		"cycle-64":        graph.Cycle(64),
		"cycle-1024":      graph.Cycle(1024),
		"grid-8x8":        graph.Grid(8, 8),
		"grid-12x24":      graph.Grid(12, 24),
		"torus-8x8":       graph.Torus(8, 8),
		"torus-16x16":     graph.Torus(16, 16),
		"complete-24":     graph.Complete(24),
		"complete-12-w":   graph.AssignWeights(graph.Complete(12), 1, 50, 3),
		"hypercube-6":     graph.Hypercube(6),
		"hypercube-8":     graph.Hypercube(8),
		"planted-24-24-3": graph.PlantedCut(24, 24, 3, 0.4, 7),
		"planted-64-64-6": graph.PlantedCut(64, 64, 6, 0.2, 11),
		"gnp-64":          graph.GNP(64, 0.15, 5),
		"gnp-96-w":        graph.AssignWeights(graph.GNP(96, 0.1, 9), 1, 30, 4),
		"regular-128-4":   graph.RandomRegular(128, 4, 3),
		"regular-256-8-w": graph.AssignWeights(graph.RandomRegular(256, 8, 6), 1, 9, 8),
		"planted-48-48-1": graph.PlantedCut(48, 48, 1, 0.7, 2),
		"cliquepath-8x12": graph.CliquePath(8, 12, 2),
	}
}

// TestBracketOutcomesPinned runs BracketMinCut on every family under
// seeds 0–7 and requires each outcome to equal the recorded one.
func TestBracketOutcomesPinned(t *testing.T) {
	got := map[string]bracketOutcome{}
	for fam, g := range bracketFamilies() {
		for seed := int64(0); seed < 8; seed++ {
			r, err := BracketMinCut(g, &Options{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", fam, seed, err)
			}
			got[fmt.Sprintf("%s/seed%d", fam, seed)] = bracketOutcome{
				Level: r.Level, Lo: r.Lo, Hi: r.Hi, Value: r.Value, BestNode: r.BestNode,
			}
		}
	}
	raw, err := os.ReadFile(bracketOutcomeFile)
	if os.IsNotExist(err) {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(bracketOutcomeFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %d bracket outcomes to %s; rerun to check them", len(got), bracketOutcomeFile)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]bracketOutcome
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

package proto

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
)

// This file is the protocol half of the golden determinism layer: BFS
// and the collectives run on four generator families, and every run's deterministic fingerprint — Stats
// counters, the (round, node)-ordered mark stream, and each node's
// result — must equal the one recorded in testdata/golden.json. The
// recording was made on the engine's goroutine-per-node execution path
// (where hand-written step twins of these protocols were checked equal
// to it), so the suite pins behaviour identity across the move of
// blocking programs onto the step scheduler. Deleting the file and
// running the suite records it afresh (and fails once, so a re-record
// is never silent).

const goldenFile = "testdata/golden.json"

// diffFamilies are the generator families the protocols are exercised
// on: high diameter (path), low diameter (expander), clustered
// (community), and dense (complete).
func diffFamilies() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":      graph.Path(64),
		"expander":  graph.RandomRegular(64, 6, 11),
		"community": graph.PlantedCut(24, 24, 4, 0.2, 11),
		"complete":  graph.Complete(16),
	}
}

// diffOptions is the engine configuration each family runs under; case
// names keep the "serial" suffix they were recorded with.
var diffOptions = congest.Options{}

// statsFingerprint is the deterministic portion of a run's Stats, its
// normalized mark stream, and the protocol's per-node results.
type statsFingerprint struct {
	Rounds     int
	Sent       int64
	Delivered  int64
	Wakeups    int64
	Leftover   int64
	DirtyNodes int
	Marks      string
	Result     string
}

func fingerprintOf(s *congest.Stats, result string) statsFingerprint {
	marks := append([]congest.Mark(nil), s.Marks...)
	// Marks recorded in the same round by different nodes may be
	// appended in either order; canonicalize by (round, node) and drop
	// the wall-clock field.
	sort.SliceStable(marks, func(i, j int) bool {
		if marks[i].Round != marks[j].Round {
			return marks[i].Round < marks[j].Round
		}
		return marks[i].Node < marks[j].Node
	})
	var b []byte
	for _, m := range marks {
		b = fmt.Appendf(b, "%s@r%d/n%d/d%d;", m.Label, m.Round, m.Node, m.Delivered)
	}
	return statsFingerprint{
		Rounds:     s.Rounds,
		Sent:       s.Sent,
		Delivered:  s.Delivered,
		Wakeups:    s.Wakeups,
		Leftover:   s.Leftover,
		DirtyNodes: s.DirtyNodes,
		Marks:      string(b),
		Result:     result,
	}
}

// overlayKey renders an overlay canonically for comparison.
func overlayKey(ov *Overlay) string {
	if ov == nil {
		return "<nil>"
	}
	return fmt.Sprintf("root=%v parent=%d children=%v depth=%d", ov.Root, ov.ParentPort, ov.ChildPorts, ov.Depth)
}

// perNode runs program on g, hands every node a fresh tag counter, and
// renders each node's output (as returned by program) in node order. It
// fails the test unless every node's counter ends at the same value:
// the protocols drew their tags in lockstep.
func perNode[T any](t *testing.T, e *congest.Engine, g *graph.Graph, program func(nd *congest.Node, tags *Tags) T) statsFingerprint {
	t.Helper()
	var mu sync.Mutex
	out := make([]T, g.N())
	used := make([]uint32, g.N())
	stats, err := e.Run(context.Background(), g, func(nd *congest.Node) {
		tags := new(Tags)
		v := program(nd, tags)
		mu.Lock()
		out[nd.ID()] = v
		used[nd.ID()] = tags.Next(0)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := range used {
		if used[v] != used[0] {
			t.Fatalf("node %d drew %d tags, node 0 drew %d: draws left lockstep", v, used[v], used[0])
		}
	}
	var b []byte
	for v, x := range out {
		b = fmt.Appendf(b, "%d:%v;", v, x)
	}
	return fingerprintOf(stats, string(b))
}

var (
	goldenOnce sync.Once
	goldenData map[string]statsFingerprint
	goldenErr  error
)

// checkGolden compares one case's fingerprint to the recorded file. If
// the file does not exist, the case is recorded instead (see
// TestMain) and the test fails so the re-record is noticed.
func checkGolden(t *testing.T, name string, got statsFingerprint) {
	t.Helper()
	goldenOnce.Do(func() {
		raw, err := os.ReadFile(goldenFile)
		if os.IsNotExist(err) {
			return
		}
		if err == nil {
			err = json.Unmarshal(raw, &goldenData)
		}
		goldenErr = err
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	if goldenData == nil {
		recordMu.Lock()
		recorded[name] = got
		recordMu.Unlock()
		t.Fatalf("%s: no golden file; recording it", name)
	}
	want, ok := goldenData[name]
	if !ok {
		t.Fatalf("%s: no golden fingerprint recorded", name)
	}
	if got != want {
		t.Fatalf("%s diverged from golden:\n  got:  %+v\n  want: %+v", name, got, want)
	}
}

var (
	recordMu sync.Mutex
	recorded = map[string]statsFingerprint{}
)

func TestMain(m *testing.M) {
	code := m.Run()
	if len(recorded) > 0 {
		out, err := json.MarshalIndent(recorded, "", "  ")
		if err == nil {
			err = os.MkdirAll(filepath.Dir(goldenFile), 0o755)
		}
		if err == nil {
			err = os.WriteFile(goldenFile, append(out, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	os.Exit(code)
}

// forEachCase runs fn on every family and checks its fingerprint
// against the golden case proto/family/serial.
func forEachCase(t *testing.T, proto string, fn func(t *testing.T, e *congest.Engine, g *graph.Graph) statsFingerprint) {
	t.Helper()
	for fam, g := range diffFamilies() {
		t.Run(fam+"/serial", func(t *testing.T) {
			e := congest.NewEngine(diffOptions)
			defer e.Close()
			checkGolden(t, proto+"/"+fam+"/serial", fn(t, e, g))
		})
	}
}

// TestDiffBFS: BuildBFS's stats, marks, and per-node overlays equal the
// recorded ones on every family.
func TestDiffBFS(t *testing.T) {
	forEachCase(t, "BFS", func(t *testing.T, e *congest.Engine, g *graph.Graph) statsFingerprint {
		return perNode(t, e, g, func(nd *congest.Node, tags *Tags) string {
			return overlayKey(BuildBFS(nd, 0, tags))
		})
	})
}

// TestDiffFlood: BFS+Flood chained, including each node's received
// stream.
func TestDiffFlood(t *testing.T) {
	items := []Item{{A: 5, B: 50}, {A: 6, C: 60}, {A: 7, D: 70}}
	forEachCase(t, "Flood", func(t *testing.T, e *congest.Engine, g *graph.Graph) statsFingerprint {
		return perNode(t, e, g, func(nd *congest.Node, tags *Tags) []Item {
			ov := BuildBFS(nd, 0, tags)
			var in []Item
			if ov.Root {
				in = items
			}
			return Flood(nd, ov, tags, in)
		})
	})
}

// TestDiffConvergeBroadcast: BFS+ConvergeBroadcast chained, with every
// node's global total.
func TestDiffConvergeBroadcast(t *testing.T) {
	forEachCase(t, "ConvergeBroadcast", func(t *testing.T, e *congest.Engine, g *graph.Graph) statsFingerprint {
		return perNode(t, e, g, func(nd *congest.Node, tags *Tags) int64 {
			ov := BuildBFS(nd, 0, tags)
			return ConvergeBroadcast(nd, ov, tags, int64(nd.ID())*3+1, Sum)
		})
	})
}

// TestDiffConvergeItemVec: BFS+ConvergeItemVec chained, with every
// node's per-slot subtree partials.
func TestDiffConvergeItemVec(t *testing.T) {
	combine := func(slot int, a, b Item) Item {
		return Item{A: a.A + b.A, B: a.B + b.B, C: a.C + b.C, D: a.D + b.D}
	}
	forEachCase(t, "ConvergeItemVec", func(t *testing.T, e *congest.Engine, g *graph.Graph) statsFingerprint {
		return perNode(t, e, g, func(nd *congest.Node, tags *Tags) []Item {
			ov := BuildBFS(nd, 0, tags)
			id := int64(nd.ID())
			acc, _ := ConvergeItemVec(nd, ov, tags, []Item{{A: id, B: 1}, {A: id * id, B: 1}, {A: -id, B: 1}}, combine)
			return acc
		})
	})
}

// keyedSumProgram is BFS+KeyedSum chained. KeyedSum exercises the
// slot-pipelined in-order child receive and embeds a flood.
func keyedSumProgram(nd *congest.Node, tags *Tags) map[int64]int64 {
	keys := []int64{3, 7, 11, 20}
	mine := map[int64]int64{}
	for _, k := range keys {
		if int64(nd.ID())%k == 0 {
			mine[k] = int64(nd.ID()) + k
		}
	}
	ov := BuildBFS(nd, 0, tags)
	return KeyedSum(nd, ov, tags, keys, mine)
}

// TestDiffKeyedSum: BFS+KeyedSum chained, with every node's totals map.
func TestDiffKeyedSum(t *testing.T) {
	forEachCase(t, "KeyedSum", func(t *testing.T, e *congest.Engine, g *graph.Graph) statsFingerprint {
		return perNode(t, e, g, keyedSumProgram)
	})
}

// TestDiffFixedOverlays: a collective run over precomputed NewOverlay
// trees (no BFS phase) matches its recording.
func TestDiffFixedOverlays(t *testing.T) {
	g := graph.Path(32)
	e := congest.NewEngine(congest.Options{})
	defer e.Close()
	fp := perNode(t, e, g, func(nd *congest.Node, tags *Tags) int64 {
		// Orient the path as a tree rooted at node 0 by construction.
		parent, children := -1, []int(nil)
		for p := 0; p < nd.Degree(); p++ {
			if nd.Peer(p) < nd.ID() {
				parent = p
			} else {
				children = append(children, p)
			}
		}
		ov := NewOverlay(parent, children, int(nd.ID()))
		return ConvergeBroadcast(nd, ov, tags, int64(nd.ID()), Sum)
	})
	checkGolden(t, "FixedOverlays", fp)
}

// TestDiffWarmEngineRerun: a retained engine re-running a protocol
// chain reproduces the recorded fresh run every time — the engine's
// warm-path reset leaves no residue.
func TestDiffWarmEngineRerun(t *testing.T) {
	g := diffFamilies()["expander"]
	e := congest.NewEngine(diffOptions)
	defer e.Close()
	for rep := 0; rep < 3; rep++ {
		checkGolden(t, "KeyedSum/expander/serial", perNode(t, e, g, keyedSumProgram))
	}
}

package congest

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"distmincut/internal/graph"
)

// statsKey is the deterministic portion of Stats: every field except
// Marks, whose intra-round interleaving is scheduling-dependent.
type statsKey struct {
	rounds                   int
	sent, delivered, wakeups int64
	leftover                 int64
}

func keyOf(s *Stats) statsKey {
	return statsKey{s.Rounds, s.Sent, s.Delivered, s.Wakeups, s.Leftover}
}

// chatterProgram is a randomized workload: every node sends a random
// number of messages to each neighbor followed by an end marker, and
// consumes traffic until every port delivered its marker. Each node
// draws from its own generator seeded with its ID, so the traffic is
// irregular but the same in every run. It terminates under any
// scheduling and exercises Send, selective Recv, Sleep, and the sender
// registry together.
func chatterProgram(nd *Node) {
	const (
		kData  uint8 = 3
		kClose uint8 = 4
	)
	rng := rand.New(rand.NewPCG(42, uint64(nd.ID())))
	reps := 1 + rng.IntN(4)
	for i := 0; i < reps; i++ {
		nd.SendAll(Message{Kind: kData, Tag: uint32(i), A: int64(nd.ID())})
	}
	if rng.IntN(2) == 0 {
		nd.Sleep(1 + rng.IntN(3))
	}
	nd.SendAll(Message{Kind: kClose})
	for markers := 0; markers < nd.Degree(); {
		_, m := nd.Recv(MatchAny)
		if m.Kind == kClose {
			markers++
		}
	}
}

// determinismFamilies are the generator families the scheduler is
// checked on: path (long diameter), expander (the paper's hard
// instances), planted communities, and a dense clique.
func determinismFamilies() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":      graph.Path(64),
		"expander":  graph.RandomRegular(64, 6, 11),
		"community": graph.PlantedCut(24, 24, 4, 0.2, 11),
		"complete":  graph.Complete(16),
	}
}

// TestDeterminismAcrossModes: Stats must be bit-identical on every
// generator family run after run — alone, and with a second engine
// running concurrently and competing for the process-wide activation
// helpers, which changes which worker activates which node.
func TestDeterminismAcrossModes(t *testing.T) {
	opts := Options{}
	for name, g := range determinismFamilies() {
		t.Run(name, func(t *testing.T) {
			stats, err := Run(context.Background(), g, opts, chatterProgram)
			if err != nil {
				t.Fatal(err)
			}
			want := keyOf(stats)
			if want.leftover != 0 {
				t.Fatalf("workload left %d unconsumed messages", want.leftover)
			}
			if stats, err = Run(context.Background(), g, opts, chatterProgram); err != nil {
				t.Fatalf("again: %v", err)
			} else if got := keyOf(stats); got != want {
				t.Fatalf("again: stats diverged: got %+v, want %+v", got, want)
			}
			var wg sync.WaitGroup
			keys := make([]statsKey, 2)
			errs := make([]error, 2)
			for i := range keys {
				wg.Add(1)
				go func() {
					defer wg.Done()
					stats, err := Run(context.Background(), g, opts, chatterProgram)
					if errs[i] = err; err == nil {
						keys[i] = keyOf(stats)
					}
				}()
			}
			wg.Wait()
			for i := range keys {
				if errs[i] != nil {
					t.Fatalf("concurrent %d: %v", i, errs[i])
				}
				if keys[i] != want {
					t.Fatalf("concurrent %d: stats diverged: got %+v, want %+v", i, keys[i], want)
				}
			}
		})
	}
}

// TestReusedEngineDeterminism: a reused engine must produce
// bit-identical Stats, dirty-node counts and mark streams to a fresh
// engine, on every generator family — across repeat runs on the same
// graph that alternate the chatter and phased programs (the warm
// dirty-region reset path) and across runs that interleave different
// graphs on one engine (the slab-reuse-with-rebuild path).
func TestReusedEngineDeterminism(t *testing.T) {
	families := determinismFamilies()
	opts := Options{}
	t.Run("serial", func(t *testing.T) {
		// Fresh-engine baselines.
		want := map[string]fullKey{}
		wantPhased := map[string]fullKey{}
		for name, g := range families {
			want[name] = fullKeyOf(mustRun(t, g, opts, chatterProgram))
			wantPhased[name] = fullKeyOf(mustRun(t, g, opts, phasedProgram))
			if n := strings.Count(wantPhased[name].marks, "@"); n != 4 {
				t.Fatalf("%s: phased run recorded %d marks, want 4", name, n)
			}
		}
		// One engine, four consecutive runs per family alternating the
		// two programs: runs 2 to 4 exercise the warm same-graph path.
		for name, g := range families {
			eng := NewEngine(opts)
			for i := 0; i < 4; i++ {
				prog, w := chatterProgram, want[name]
				if i%2 == 1 {
					prog, w = phasedProgram, wantPhased[name]
				}
				stats, err := eng.Run(context.Background(), g, prog)
				if err != nil {
					t.Fatalf("%s reuse run %d: %v", name, i, err)
				}
				if got := fullKeyOf(stats); got != w {
					t.Fatalf("%s reuse run %d diverged: got %+v, want %+v", name, i, got, w)
				}
			}
			eng.Close()
		}
		// One engine across every family, twice over: each switch
		// rebuilds port tables while keeping whatever slabs fit.
		eng := NewEngine(opts)
		defer eng.Close()
		order := []string{"path", "expander", "community", "complete"}
		for round := 0; round < 2; round++ {
			for _, name := range order {
				stats, err := eng.Run(context.Background(), families[name], chatterProgram)
				if err != nil {
					t.Fatalf("%s cross-graph round %d: %v", name, round, err)
				}
				if got := fullKeyOf(stats); got != want[name] {
					t.Fatalf("%s cross-graph round %d diverged: got %+v, want %+v", name, round, got, want[name])
				}
			}
		}
	})
}

// TestReusedEngineAfterAbort: an aborted run (deadlock, panic) must not
// poison the engine — the next Run recarves everything and behaves like
// a fresh engine, down to its dirty-node count and mark stream.
func TestReusedEngineAfterAbort(t *testing.T) {
	g := graph.RandomRegular(64, 6, 11)
	opts := Options{}
	want := fullKeyOf(mustRun(t, g, opts, chatterProgram))
	wantPhased := fullKeyOf(mustRun(t, g, opts, phasedProgram))
	eng := NewEngine(opts)
	defer eng.Close()
	// Deadlock abort: every node parks in Recv with no traffic.
	if _, err := eng.Run(context.Background(), g, func(nd *Node) { nd.Recv(MatchKind(kindToken)) }); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	stats, err := eng.Run(context.Background(), g, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	if got := fullKeyOf(stats); got != want {
		t.Fatalf("post-abort run diverged: got %+v, want %+v", got, want)
	}
	// Panic abort mid-traffic leaves staged messages behind; the next
	// runs must still match.
	if _, err := eng.Run(context.Background(), g, func(nd *Node) {
		nd.SendAll(Message{Kind: kindData})
		if nd.ID() == 3 {
			panic("boom")
		}
		for i := 0; i < nd.Degree(); i++ {
			nd.Recv(MatchKind(kindData))
		}
	}); err == nil {
		t.Fatal("expected panic error")
	}
	if stats, err = eng.Run(context.Background(), g, phasedProgram); err != nil {
		t.Fatal(err)
	}
	if got := fullKeyOf(stats); got != wantPhased {
		t.Fatalf("post-panic phased run diverged: got %+v, want %+v", got, wantPhased)
	}
	if stats, err = eng.Run(context.Background(), g, chatterProgram); err != nil {
		t.Fatal(err)
	}
	if got := fullKeyOf(stats); got != want {
		t.Fatalf("post-panic run diverged: got %+v, want %+v", got, want)
	}
}

// TestStepWarmEngineAlternatingModes: one retained engine alternating
// the chatter and phased programs while also switching graphs
// run-over-run must reproduce the fresh fingerprints every time —
// neither the warm same-graph reset nor the cross-graph rebuild may
// carry one program's marks, dirty set or staged traffic into the next.
func TestStepWarmEngineAlternatingModes(t *testing.T) {
	families := determinismFamilies()
	opts := Options{}
	type run struct {
		graph  string
		phased bool
	}
	runs := []run{
		{"expander", false}, {"expander", true}, {"path", true},
		{"path", false}, {"community", true}, {"expander", true},
	}
	want := map[run]fullKey{}
	for _, r := range runs {
		prog := chatterProgram
		if r.phased {
			prog = phasedProgram
		}
		want[r] = fullKeyOf(mustRun(t, families[r.graph], opts, prog))
	}
	eng := NewEngine(opts)
	defer eng.Close()
	for rep, r := range runs {
		prog := chatterProgram
		if r.phased {
			prog = phasedProgram
		}
		stats, err := eng.Run(context.Background(), families[r.graph], prog)
		if err != nil {
			t.Fatalf("rep %d (%+v): %v", rep, r, err)
		}
		if got := fullKeyOf(stats); got != want[r] {
			t.Fatalf("rep %d (%+v) diverged: got %+v, want %+v", rep, r, got, want[r])
		}
	}
}

// TestStepReusedEngineAfterAbort: runs aborted at a round boundary
// rather than inside a program — a round-cap trip and a context
// cancelled mid-traffic — must not poison a retained engine: the next
// runs match fresh fingerprints.
func TestStepReusedEngineAfterAbort(t *testing.T) {
	g := graph.RandomRegular(64, 6, 11)
	opts := Options{MaxRounds: 200}
	want := fullKeyOf(mustRun(t, g, opts, chatterProgram))
	wantPhased := fullKeyOf(mustRun(t, g, opts, phasedProgram))
	// endless keeps every port busy each round until the run is stopped
	// from outside, so the abort leaves messages staged and in flight.
	endless := func(nd *Node) {
		for {
			nd.SendAll(Message{Kind: kindData})
			for i := 0; i < nd.Degree(); i++ {
				nd.Recv(MatchKind(kindData))
			}
		}
	}
	eng := NewEngine(opts)
	defer eng.Close()
	if _, err := eng.Run(context.Background(), g, endless); !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	stats, err := eng.Run(context.Background(), g, phasedProgram)
	if err != nil {
		t.Fatal(err)
	}
	if got := fullKeyOf(stats); got != wantPhased {
		t.Fatalf("phased run after round-cap abort diverged: got %+v, want %+v", got, wantPhased)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Node 0 cancels the run from inside once traffic is flowing.
	if _, err := eng.Run(ctx, g, func(nd *Node) {
		for {
			if nd.ID() == 0 && nd.Round() >= 5 {
				cancel()
			}
			nd.SendAll(Message{Kind: kindData})
			for i := 0; i < nd.Degree(); i++ {
				nd.Recv(MatchKind(kindData))
			}
		}
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats, err = eng.Run(context.Background(), g, chatterProgram); err != nil {
		t.Fatal(err)
	}
	if got := fullKeyOf(stats); got != want {
		t.Fatalf("chatter run after cancelled run diverged: got %+v, want %+v", got, want)
	}
}

// mustRun is a one-shot Run that fails the test on error.
func mustRun(t *testing.T, g *graph.Graph, opts Options, program func(*Node)) *Stats {
	t.Helper()
	stats, err := Run(context.Background(), g, opts, program)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestWarmRunRetainsSlabs (whitebox): a second Run on the same graph
// must reuse the exact backing arrays of the first — the structural
// guarantee behind the near-zero warm setup-ns — and report a setup
// measurement.
func TestWarmRunRetainsSlabs(t *testing.T) {
	g := graph.RandomRegular(512, 6, 5)
	eng := NewEngine(Options{})
	defer eng.Close()
	if _, err := eng.Run(context.Background(), g, chatterProgram); err != nil {
		t.Fatal(err)
	}
	q0, m0, n0 := &eng.qSlab[0], &eng.msgSlab[0], &eng.nodeSlab[0]
	stats, err := eng.Run(context.Background(), g, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	if &eng.qSlab[0] != q0 || &eng.msgSlab[0] != m0 || &eng.nodeSlab[0] != n0 {
		t.Fatal("warm run replaced a retained slab")
	}
	if stats.SetupNanos <= 0 {
		t.Fatalf("SetupNanos = %d, want > 0", stats.SetupNanos)
	}
	t.Logf("warm setup: %d ns", stats.SetupNanos)
}

// TestSlabsCarvedAtExactSize (whitebox): a full init carves the
// message and queue slabs at exactly the length the graph needs, warm
// runs on the same or a smaller graph keep them, a larger graph
// replaces them with a quarter of headroom, and a new engine on a
// graph of the same size takes a released slab back from the pool, as
// a one-shot Run does, even when a smaller slab of the same class sits
// in the pool too.
func TestSlabsCarvedAtExactSize(t *testing.T) {
	big, small, bigger := graph.RandomRegular(500, 6, 5), graph.RandomRegular(300, 6, 6), graph.RandomRegular(520, 6, 7)
	ports := 2 * big.M()
	run := func(e *Engine, g *graph.Graph) {
		t.Helper()
		if _, err := e.Run(context.Background(), g, chatterProgram); err != nil {
			t.Fatal(err)
		}
	}
	// Empty the pools first: a slab another test released may fit.
	for c := range msgSlabPool {
		for msgSlabPool[c].Get() != nil {
		}
		for qSlabPool[c].Get() != nil {
		}
	}
	eng := NewEngine(Options{})
	defer func() { eng.Close() }()
	run(eng, big)
	if want := ports * (slabOutCap + slabInCap); len(eng.msgSlab) != want || cap(eng.msgSlab) != want {
		t.Fatalf("message slab len %d cap %d, want both %d", len(eng.msgSlab), cap(eng.msgSlab), want)
	}
	if want := 2 * ports; len(eng.qSlab) != want || cap(eng.qSlab) != want {
		t.Fatalf("queue slab len %d cap %d, want both %d", len(eng.qSlab), cap(eng.qSlab), want)
	}
	m0, q0 := &eng.msgSlab[0], &eng.qSlab[0]
	for _, g := range []*graph.Graph{small, big} {
		run(eng, g)
		if &eng.msgSlab[0] != m0 || &eng.qSlab[0] != q0 {
			t.Fatalf("warm run on %d nodes replaced a retained slab", g.N())
		}
	}
	// sync.Pool gives no guarantee: the engine's goroutine may change Ps
	// between release and reuse, and under the race detector the pool
	// drops items at random. Without it, one of a few tries must hit.
	for try := 0; !raceEnabled; try++ {
		m0 := &eng.msgSlab[0]
		eng.Close()
		eng = NewEngine(Options{})
		run(eng, big)
		if &eng.msgSlab[0] == m0 {
			break
		}
		if try == 4 {
			t.Fatal("a new engine on a same-size graph never reused the released message slab")
		}
	}
	// A smaller slab of the same class, pooled before the fitting one
	// is released, must not hide it: sync.Pool hands out the slab in
	// its per-P private slot first.
	for try := 0; !raceEnabled; try++ {
		want := ports * (slabOutCap + slabInCap)
		if slabClass(want-1) != slabClass(want) {
			t.Fatalf("test needs a same-class slab smaller than %d", want)
		}
		m0 := &eng.msgSlab[0]
		putSlab(&msgSlabPool, make([]Message, want-1))
		eng.Close()
		eng = NewEngine(Options{})
		run(eng, big)
		if &eng.msgSlab[0] == m0 {
			break
		}
		if try == 4 {
			t.Fatal("a smaller pooled slab kept a new engine from reusing the released message slab")
		}
	}
	run(eng, bigger)
	if want := 2 * bigger.M() * (slabOutCap + slabInCap); cap(eng.msgSlab) != want+want/4 {
		t.Fatalf("regrown message slab cap %d, want %d", cap(eng.msgSlab), want+want/4)
	}
	if want := 4 * bigger.M(); cap(eng.qSlab) != want+want/4 {
		t.Fatalf("regrown queue slab cap %d, want %d", cap(eng.qSlab), want+want/4)
	}
}

// phasedProgram is a two-phase exchange whose phase boundaries node 0
// records as begin:/end: marks, with a sleep separating the phases — a
// miniature of how the pipeline instruments its steps.
func phasedProgram(nd *Node) {
	if nd.ID() == 0 {
		nd.Mark("begin:exchange")
	}
	nd.SendAll(Message{Kind: kindData})
	for i := 0; i < nd.Degree(); i++ {
		nd.Recv(MatchKind(kindData))
	}
	if nd.ID() == 0 {
		nd.Mark("end:exchange")
	}
	nd.Sleep(2)
	if nd.ID() == 0 {
		nd.Mark("begin:echo")
	}
	nd.SendAll(Message{Kind: kindToken})
	for i := 0; i < nd.Degree(); i++ {
		nd.Recv(MatchKind(kindToken))
	}
	if nd.ID() == 0 {
		nd.Mark("end:echo")
	}
}

// fullKey extends statsKey with the dirty-node count and the normalized
// mark stream (label, round, node, delivered — everything but the
// wall-clock field).
type fullKey struct {
	statsKey
	dirty int
	marks string
}

func fullKeyOf(s *Stats) fullKey {
	var b []byte
	for _, m := range s.Marks {
		b = fmt.Appendf(b, "%s@%d;%d;%d;", m.Label, m.Round, m.Node, m.Delivered)
	}
	return fullKey{statsKey: keyOf(s), dirty: s.DirtyNodes, marks: string(b)}
}

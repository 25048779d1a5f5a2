package congest

import (
	"context"
	"errors"
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

// chatterProgram is a randomized, RNG-driven workload: every node sends
// a random number of messages to each neighbor followed by an end
// marker, and consumes traffic until every port delivered its marker.
// It terminates under any scheduling and exercises Send, selective
// Recv, Sleep, and the sender registry together.
func chatterProgram(nd *Node) {
	const (
		kData  uint8 = 3
		kClose uint8 = 4
	)
	reps := 1 + nd.Rand().Intn(4)
	for i := 0; i < reps; i++ {
		nd.SendAll(Message{Kind: kData, Tag: uint32(i), A: int64(nd.ID())})
	}
	if nd.Rand().Intn(2) == 0 {
		nd.Sleep(1 + nd.Rand().Intn(3))
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

// TestDeterminismAcrossModes: for the same seed, Stats must be
// bit-identical on every generator family run after run — alone, and
// with a second engine running concurrently and competing for the
// process-wide activation helpers, which changes which worker activates
// which node.
func TestDeterminismAcrossModes(t *testing.T) {
	opts := Options{Seed: 42}
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
// bit-identical Stats to a fresh engine, on every generator family —
// across repeat runs on the same graph (the warm dirty-region reset
// path) and across runs that interleave different graphs on one engine
// (the slab-reuse-with-rebuild path).
func TestReusedEngineDeterminism(t *testing.T) {
	families := determinismFamilies()
	opts := Options{Seed: 42}
	t.Run("serial", func(t *testing.T) {
		// Fresh-engine baselines.
		want := map[string]statsKey{}
		for name, g := range families {
			stats, err := Run(context.Background(), g, opts, chatterProgram)
			if err != nil {
				t.Fatalf("%s fresh: %v", name, err)
			}
			want[name] = keyOf(stats)
		}
		// One engine, three consecutive runs per family: run 2 and 3
		// exercise the warm same-graph path.
		for name, g := range families {
			eng := NewEngine(opts)
			for i := 0; i < 3; i++ {
				stats, err := eng.Run(context.Background(), g, chatterProgram)
				if err != nil {
					t.Fatalf("%s reuse run %d: %v", name, i, err)
				}
				if got := keyOf(stats); got != want[name] {
					t.Fatalf("%s reuse run %d diverged: got %+v, want %+v", name, i, got, want[name])
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
				if got := keyOf(stats); got != want[name] {
					t.Fatalf("%s cross-graph round %d diverged: got %+v, want %+v", name, round, got, want[name])
				}
			}
		}
	})
}

// TestReusedEngineAfterAbort: an aborted run (deadlock, panic) must not
// poison the engine — the next Run recarves everything and behaves like
// a fresh engine.
func TestReusedEngineAfterAbort(t *testing.T) {
	g := graph.RandomRegular(64, 6, 11)
	fresh, err := Run(context.Background(), g, Options{Seed: 42}, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(Options{Seed: 42})
	defer eng.Close()
	// Deadlock abort: every node parks in Recv with no traffic.
	if _, err := eng.Run(context.Background(), g, func(nd *Node) { nd.Recv(MatchKind(kindToken)) }); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	stats, err := eng.Run(context.Background(), g, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	if keyOf(stats) != keyOf(fresh) {
		t.Fatalf("post-abort run diverged: got %+v, want %+v", keyOf(stats), keyOf(fresh))
	}
	// Panic abort mid-traffic leaves staged messages behind; the next
	// run must still match.
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
	stats, err = eng.Run(context.Background(), g, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	if keyOf(stats) != keyOf(fresh) {
		t.Fatalf("post-panic run diverged: got %+v, want %+v", keyOf(stats), keyOf(fresh))
	}
}

// TestWarmRunRetainsSlabs (whitebox): a second Run on the same graph
// must reuse the exact backing arrays of the first — the structural
// guarantee behind the near-zero warm setup-ns — and report a setup
// measurement.
func TestWarmRunRetainsSlabs(t *testing.T) {
	g := graph.RandomRegular(512, 6, 5)
	eng := NewEngine(Options{Seed: 7})
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

// TestDeterminismUnbounded: the span-copy delivery of Unbounded mode
// must be bit-identical run after run, on a fresh and a reused engine.
func TestDeterminismUnbounded(t *testing.T) {
	opts := Options{Seed: 7, Unbounded: true}
	for name, g := range determinismFamilies() {
		t.Run(name, func(t *testing.T) {
			stats, err := Run(context.Background(), g, opts, chatterProgram)
			if err != nil {
				t.Fatal(err)
			}
			want := keyOf(stats)
			eng := NewEngine(opts)
			defer eng.Close()
			for i := 0; i < 2; i++ {
				stats, err := eng.Run(context.Background(), g, chatterProgram)
				if err != nil {
					t.Fatalf("reuse run %d: %v", i, err)
				}
				if got := keyOf(stats); got != want {
					t.Fatalf("reuse run %d stats diverged: got %+v, want %+v", i, got, want)
				}
			}
		})
	}
}

// TestDeterminismAcrossSeeds: different seeds must actually change the
// run (guards against the RNG being ignored), while each seed stays
// self-consistent.
func TestDeterminismAcrossSeeds(t *testing.T) {
	g := graph.RandomRegular(48, 4, 7)
	a1, err := Run(context.Background(), g, Options{Seed: 1}, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Run(context.Background(), g, Options{Seed: 1}, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), g, Options{Seed: 2}, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	if keyOf(a1) != keyOf(a2) {
		t.Fatalf("same seed diverged: %v vs %v", a1, a2)
	}
	if a1.Sent == b.Sent && a1.Rounds == b.Rounds {
		t.Fatalf("seeds 1 and 2 produced identical traffic (%v); RNG not applied", a1)
	}
}

// ---------------------------------------------------------------------
// Differential determinism: hand-written step programs vs their
// blocking forms hosted on coroutines. The two executions must be
// bit-identical — same Stats, same marks — on every generator family
// and delivery mode. Protocol-level identity (BFS and the collectives)
// is pinned by the golden suite in internal/proto/golden_test.go.

// stepChatter is the step twin of chatterProgram: the same RNG draws in
// the same order, the same sends, the same park points. Any divergence
// in scheduling between the two paths shows up as a Stats mismatch.
type stepChatter struct {
	st []stepChatterState
}

type stepChatterState struct {
	pc      int
	markers int
}

func (c *stepChatter) InitRun(n int) {
	if cap(c.st) < n {
		c.st = make([]stepChatterState, n)
	} else {
		c.st = c.st[:n]
		for i := range c.st {
			c.st[i] = stepChatterState{}
		}
	}
}

func (c *stepChatter) Step(nd *Node) Park {
	const (
		kData  uint8 = 3
		kClose uint8 = 4
	)
	st := &c.st[nd.ID()]
	for {
		switch st.pc {
		case 0:
			reps := 1 + nd.Rand().Intn(4)
			for i := 0; i < reps; i++ {
				nd.SendAll(Message{Kind: kData, Tag: uint32(i), A: int64(nd.ID())})
			}
			st.pc = 1
			if nd.Rand().Intn(2) == 0 {
				return ParkSleep(1 + nd.Rand().Intn(3))
			}
		case 1:
			nd.SendAll(Message{Kind: kClose})
			st.pc = 2
		case 2:
			for st.markers < nd.Degree() {
				_, m, ok := nd.StepRecv(MatchAny)
				if !ok {
					return ParkRecv(MatchAny)
				}
				if m.Kind == kClose {
					st.markers++
				}
			}
			return ParkDone()
		}
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

// stepPhased is phasedProgram in step form: same sends, same marks at
// the same points, same park structure.
type stepPhased struct {
	st []stepPhasedState
}

type stepPhasedState struct {
	pc  int
	got int
}

func (c *stepPhased) InitRun(n int) {
	if cap(c.st) < n {
		c.st = make([]stepPhasedState, n)
	} else {
		c.st = c.st[:n]
		for i := range c.st {
			c.st[i] = stepPhasedState{}
		}
	}
}

func (c *stepPhased) Step(nd *Node) Park {
	st := &c.st[nd.ID()]
	for {
		switch st.pc {
		case 0:
			if nd.ID() == 0 {
				nd.Mark("begin:exchange")
			}
			nd.SendAll(Message{Kind: kindData})
			st.pc = 1
		case 1:
			for st.got < nd.Degree() {
				if _, _, ok := nd.StepRecv(MatchKind(kindData)); !ok {
					return ParkRecv(MatchKind(kindData))
				}
				st.got++
			}
			if nd.ID() == 0 {
				nd.Mark("end:exchange")
			}
			st.pc = 2
			return ParkSleep(2)
		case 2:
			if nd.ID() == 0 {
				nd.Mark("begin:echo")
			}
			nd.SendAll(Message{Kind: kindToken})
			st.got = 0
			st.pc = 3
		case 3:
			for st.got < nd.Degree() {
				if _, _, ok := nd.StepRecv(MatchKind(kindToken)); !ok {
					return ParkRecv(MatchKind(kindToken))
				}
				st.got++
			}
			if nd.ID() == 0 {
				nd.Mark("end:echo")
			}
			return ParkDone()
		}
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

func fullKeyOf(t *testing.T, s *Stats) fullKey {
	t.Helper()
	var b []byte
	for _, m := range s.Marks {
		b = append(b, []byte(m.Label)...)
		b = append(b, '@')
		b = appendInts(b, m.Round, int(m.Node), int(m.Delivered))
	}
	return fullKey{statsKey: keyOf(s), dirty: s.DirtyNodes, marks: string(b)}
}

func appendInts(b []byte, vals ...int) []byte {
	for _, v := range vals {
		if v < 0 {
			b = append(b, '-')
			v = -v
		}
		var tmp [20]byte
		i := len(tmp)
		for {
			i--
			tmp[i] = byte('0' + v%10)
			v /= 10
			if v == 0 {
				break
			}
		}
		b = append(b, tmp[i:]...)
		b = append(b, ';')
	}
	return b
}

// TestStepDifferentialChatter: the RNG-driven chatter workload must be
// bit-identical between the blocking and step paths on every family —
// including the per-node RNG draw sequence, sleeps, and the
// selective-receive drain.
func TestStepDifferentialChatter(t *testing.T) {
	opts := Options{Seed: 42}
	for fam, g := range determinismFamilies() {
		t.Run(fam+"/serial", func(t *testing.T) {
			bs, err := Run(context.Background(), g, opts, chatterProgram)
			if err != nil {
				t.Fatalf("blocking path: %v", err)
			}
			ss, err := Run(context.Background(), g, opts, &stepChatter{})
			if err != nil {
				t.Fatalf("step path: %v", err)
			}
			if got, want := fullKeyOf(t, ss), fullKeyOf(t, bs); got != want {
				t.Fatalf("step path diverged: got %+v, want %+v", got, want)
			}
		})
	}
}

// TestStepDifferentialMarks: the phased, mark-recording workload must
// produce the identical mark stream — labels, rounds, delivered counts
// — on both paths.
func TestStepDifferentialMarks(t *testing.T) {
	opts := Options{Seed: 42}
	for fam, g := range determinismFamilies() {
		t.Run(fam+"/serial", func(t *testing.T) {
			bs, err := Run(context.Background(), g, opts, phasedProgram)
			if err != nil {
				t.Fatalf("blocking path: %v", err)
			}
			ss, err := Run(context.Background(), g, opts, &stepPhased{})
			if err != nil {
				t.Fatalf("step path: %v", err)
			}
			if bs.Marks == nil || len(bs.Marks) != 4 {
				t.Fatalf("expected 4 marks, got %v", bs.Marks)
			}
			if got, want := fullKeyOf(t, ss), fullKeyOf(t, bs); got != want {
				t.Fatalf("step path diverged: got %+v, want %+v", got, want)
			}
		})
	}
}

// TestStepWarmEngineAlternatingModes: one retained engine alternating
// blocking and step programs run-over-run must reproduce the fresh
// fingerprints every time — neither path's warm-state shortcuts
// (phase staleness, wake-channel slabs, program state slabs) may leak
// into the other.
func TestStepWarmEngineAlternatingModes(t *testing.T) {
	g := graph.RandomRegular(64, 6, 11)
	opts := Options{Seed: 42}
	bs, err := Run(context.Background(), g, opts, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Run(context.Background(), g, opts, &stepChatter{})
	if err != nil {
		t.Fatal(err)
	}
	want := fullKeyOf(t, bs)
	if got := fullKeyOf(t, ss); got != want {
		t.Fatalf("fresh step run diverged: got %+v, want %+v", got, want)
	}
	eng := NewEngine(opts)
	defer eng.Close()
	step := &stepChatter{}
	for rep := 0; rep < 6; rep++ {
		var stats *Stats
		var err error
		if rep%2 == 0 {
			stats, err = eng.Run(context.Background(), g, chatterProgram)
		} else {
			stats, err = eng.Run(context.Background(), g, step)
		}
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if got := fullKeyOf(t, stats); got != want {
			t.Fatalf("rep %d diverged: got %+v, want %+v", rep, got, want)
		}
	}
}

// TestStepReusedEngineAfterAbort: aborted step runs (deadlock, panic
// mid-traffic) must not poison a retained engine for either path.
func TestStepReusedEngineAfterAbort(t *testing.T) {
	g := graph.RandomRegular(64, 6, 11)
	opts := Options{Seed: 42}
	fresh, err := Run(context.Background(), g, opts, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	want := fullKeyOf(t, fresh)
	eng := NewEngine(opts)
	defer eng.Close()
	// Step deadlock: every node parks in Recv with no traffic.
	deadlock := &stepFuncProgram{step: func(nd *Node) Park { return ParkRecv(MatchAny) }}
	if _, err := eng.Run(context.Background(), g, deadlock); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	stats, err := eng.Run(context.Background(), g, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	if got := fullKeyOf(t, stats); got != want {
		t.Fatalf("blocking run after step deadlock diverged: got %+v, want %+v", got, want)
	}
	// Step panic mid-traffic leaves staged messages behind; a step rerun
	// must still match.
	bomber := &stepFuncProgram{step: func(nd *Node) Park {
		nd.SendAll(Message{Kind: kindData})
		if nd.ID() == 3 {
			panic("step boom")
		}
		return ParkRecv(MatchKind(kindData))
	}}
	if _, err := eng.Run(context.Background(), g, bomber); err == nil {
		t.Fatal("expected panic error")
	}
	stats, err = eng.Run(context.Background(), g, &stepChatter{})
	if err != nil {
		t.Fatal(err)
	}
	if got := fullKeyOf(t, stats); got != want {
		t.Fatalf("step run after step panic diverged: got %+v, want %+v", got, want)
	}
}

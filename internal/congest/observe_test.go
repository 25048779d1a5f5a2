package congest

import (
	"context"
	"testing"

	"distmincut/internal/graph"
)

// collectObserver retains every round record it sees.
type collectObserver struct {
	recs []RoundRecord
}

func (c *collectObserver) ObserveRound(r RoundRecord) { c.recs = append(c.recs, r) }

// TestObserverRecordsSumToStats: one record per round, per-round
// deliveries sum to the run total, cumulative totals are monotone, and
// the final record agrees with Stats.
func TestObserverRecordsSumToStats(t *testing.T) {
	g := graph.PlantedCut(16, 16, 3, 0.4, 5)
	obs := &collectObserver{}
	st, err := Run(context.Background(), g, Options{Observer: obs}, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.recs) != st.Rounds {
		t.Fatalf("observer saw %d rounds, stats say %d", len(obs.recs), st.Rounds)
	}
	var sum int64
	prevTotal := int64(0)
	for i, r := range obs.recs {
		if r.Round != i+1 {
			t.Fatalf("record %d has round %d, want %d", i, r.Round, i+1)
		}
		if r.Delivered < 0 {
			t.Fatalf("round %d negative delivered %d", r.Round, r.Delivered)
		}
		sum += r.Delivered
		if r.TotalDelivered != sum {
			t.Fatalf("round %d cumulative %d, want %d", r.Round, r.TotalDelivered, sum)
		}
		if r.TotalDelivered < prevTotal {
			t.Fatalf("round %d cumulative went backwards", r.Round)
		}
		prevTotal = r.TotalDelivered
		if r.Nanos <= 0 {
			t.Fatalf("round %d has no wall timestamp", r.Round)
		}
	}
	if sum != st.Delivered {
		t.Fatalf("per-round deliveries sum to %d, stats delivered %d", sum, st.Delivered)
	}
	last := obs.recs[len(obs.recs)-1]
	if last.DirtyNodes != st.DirtyNodes {
		t.Fatalf("final dirty nodes %d, stats %d", last.DirtyNodes, st.DirtyNodes)
	}
}

// TestObserverDoesNotPerturbRun: the deterministic portion of Stats is
// bit-identical with and without an observer attached.
func TestObserverDoesNotPerturbRun(t *testing.T) {
	for name, g := range determinismFamilies() {
		base, err := Run(context.Background(), g, Options{}, chatterProgram)
		if err != nil {
			t.Fatal(err)
		}
		obs, err := Run(context.Background(), g, Options{Observer: NewFlightRecorder(0)}, chatterProgram)
		if err != nil {
			t.Fatal(err)
		}
		if keyOf(base) != keyOf(obs) {
			t.Fatalf("%s: observed run diverged: %+v vs %+v", name, keyOf(base), keyOf(obs))
		}
	}
}

// TestFlightRecorderRing: the recorder keeps exactly the last K
// records, oldest first, and Reset empties it.
func TestFlightRecorderRing(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 1; i <= 10; i++ {
		fr.ObserveRound(RoundRecord{Round: i, Delivered: int64(i), ShardNanos: []int64{int64(i)}})
	}
	tail := fr.Tail()
	if len(tail) != 4 {
		t.Fatalf("tail length %d, want 4", len(tail))
	}
	for i, r := range tail {
		want := 7 + i
		if r.Round != want {
			t.Fatalf("tail[%d].Round = %d, want %d", i, r.Round, want)
		}
		if len(r.ShardNanos) != 1 || r.ShardNanos[0] != int64(want) {
			t.Fatalf("tail[%d] shard nanos not copied per slot", i)
		}
	}
	// The returned tail must be a fresh copy: recording more rounds
	// cannot mutate it.
	fr.ObserveRound(RoundRecord{Round: 11})
	if tail[0].Round != 7 {
		t.Fatal("Tail aliases the ring")
	}
	fr.Reset()
	if got := fr.Tail(); len(got) != 0 {
		t.Fatalf("tail after reset has %d records", len(got))
	}
}

// TestFlightRecorderDefaultSize: k <= 0 takes DefaultFlightRounds.
func TestFlightRecorderDefaultSize(t *testing.T) {
	fr := NewFlightRecorder(0)
	for i := 1; i <= DefaultFlightRounds+5; i++ {
		fr.ObserveRound(RoundRecord{Round: i})
	}
	tail := fr.Tail()
	if len(tail) != DefaultFlightRounds {
		t.Fatalf("default ring holds %d, want %d", len(tail), DefaultFlightRounds)
	}
	if tail[0].Round != 6 {
		t.Fatalf("oldest retained round %d, want 6", tail[0].Round)
	}
}

// TestFlightRecorderEndToEnd: armed as the engine observer, the
// recorder's tail covers the run's final rounds in order.
func TestFlightRecorderEndToEnd(t *testing.T) {
	g := graph.Path(48)
	fr := NewFlightRecorder(8)
	st, err := Run(context.Background(), g, Options{Observer: fr}, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	tail := fr.Tail()
	if len(tail) == 0 {
		t.Fatal("empty tail after run")
	}
	if last := tail[len(tail)-1]; last.Round != st.Rounds {
		t.Fatalf("tail ends at round %d, stats ran %d", last.Round, st.Rounds)
	}
	for i := 1; i < len(tail); i++ {
		if tail[i].Round != tail[i-1].Round+1 {
			t.Fatalf("tail rounds not consecutive at %d", i)
		}
	}
}

// TestDirtyNodesSparseWake: a program where most nodes go to sleep
// immediately must report far fewer dirty nodes than n — the
// dirty-sender teardown walk is what makes warm reuse cheap, and
// DirtyNodes is its observable witness.
func TestDirtyNodesSparseWake(t *testing.T) {
	g := graph.Path(256)
	// Only the two path endpoints send (one unread message each to
	// their interior neighbor); everyone else returns untouched. The
	// teardown walk must find the leftover via the two dirty senders.
	st, err := Run(context.Background(), g, Options{}, func(nd *Node) {
		if nd.Degree() != 1 {
			return
		}
		nd.SendAll(Message{Kind: 9})
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtyNodes > 4 {
		t.Fatalf("%d dirty nodes for 2 senders", st.DirtyNodes)
	}
	if st.Sent != 2 || st.Delivered != 2 {
		t.Fatalf("sent %d delivered %d, want 2/2", st.Sent, st.Delivered)
	}
	if st.Leftover != 2 {
		t.Fatalf("leftover %d, want 2 (unread messages at interior peers)", st.Leftover)
	}
}

// TestWarmReuseAccountingAfterSparseRuns: repeated warm runs over the
// same engine keep per-run Sent/Delivered accounting exact even though
// teardown only walks dirty senders.
func TestWarmReuseAccountingAfterSparseRuns(t *testing.T) {
	g := graph.PlantedCut(24, 24, 3, 0.3, 9)
	eng := NewEngine(Options{})
	defer eng.Close()
	var first statsKey
	for i := 0; i < 4; i++ {
		st, err := eng.Run(context.Background(), g, chatterProgram)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = keyOf(st)
			continue
		}
		if keyOf(st) != first {
			t.Fatalf("warm run %d diverged: %+v vs %+v", i, keyOf(st), first)
		}
	}
}

// TestNilObserverWarmRunAllocs: with no observer, a warm engine
// re-running an exchange must allocate only the returned Stats — round
// handoff, park bookkeeping, coroutine reuse and the wake scan are
// allocation-free. The program shares one match predicate across nodes
// so the workload itself allocates nothing.
func TestNilObserverWarmRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled coroutines at random")
	}
	const rounds = 4
	g := graph.RandomRegular(128, 6, 9)
	match := MatchKind(benchKind)
	prog := func(nd *Node) {
		for r := 0; r < rounds; r++ {
			nd.SendAll(Message{Kind: benchKind, Tag: uint32(r)})
		}
		for i := rounds * nd.Degree(); i > 0; i-- {
			nd.Recv(match)
		}
	}
	eng := NewEngine(Options{})
	defer eng.Close()
	if _, err := eng.Run(context.Background(), g, prog); err != nil {
		t.Fatal(err) // cold run: slabs and coroutines allocate here
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := eng.Run(context.Background(), g, prog); err != nil {
			t.Fatal(err)
		}
	})
	// One allocation for the returned *Stats; a tiny slack for the
	// runtime's occasional map/stack bookkeeping.
	if avg > 3 {
		t.Fatalf("warm nil-observer run allocated %.1f times, want <= 3", avg)
	}
	t.Logf("warm run allocations: %.1f", avg)
}

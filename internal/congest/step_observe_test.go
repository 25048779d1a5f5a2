package congest

import (
	"context"
	"testing"

	"distmincut/internal/graph"
)

// Observer contract on the step path: the compiled execution mode must
// feed observers the exact same per-round records as the blocking
// mode, and a nil observer must keep the step loop free of observation
// overhead.

// TestStepObserverRecordsSumToStats: the step path delivers one record
// per round whose per-round deliveries sum to the run total, with the
// final record agreeing with Stats — the same contract the blocking
// path is held to in TestObserverRecordsSumToStats.
func TestStepObserverRecordsSumToStats(t *testing.T) {
	g := graph.PlantedCut(16, 16, 3, 0.4, 5)
	obs := &collectObserver{}
	st, err := Run(context.Background(), g, Options{Seed: 1, Observer: obs}, &stepChatter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.recs) != st.Rounds {
		t.Fatalf("observer saw %d rounds, stats say %d", len(obs.recs), st.Rounds)
	}
	var sum int64
	for i, r := range obs.recs {
		if r.Round != i+1 {
			t.Fatalf("record %d has round %d, want %d", i, r.Round, i+1)
		}
		sum += r.Delivered
		if r.TotalDelivered != sum {
			t.Fatalf("round %d cumulative %d, want %d", r.Round, r.TotalDelivered, sum)
		}
	}
	if sum != st.Delivered {
		t.Fatalf("per-round deliveries sum to %d, stats delivered %d", sum, st.Delivered)
	}
	if last := obs.recs[len(obs.recs)-1]; last.DirtyNodes != st.DirtyNodes {
		t.Fatalf("final dirty nodes %d, stats %d", last.DirtyNodes, st.DirtyNodes)
	}
}

// deterministicRecord is the portion of a RoundRecord that must be
// bit-identical across execution paths (everything but clock readings).
type deterministicRecord struct {
	Round          int
	Delivered      int64
	TotalDelivered int64
	Woken          int
	DirtyNodes     int
}

func deterministicTail(recs []RoundRecord) []deterministicRecord {
	out := make([]deterministicRecord, len(recs))
	for i, r := range recs {
		out[i] = deterministicRecord{r.Round, r.Delivered, r.TotalDelivered, r.Woken, r.DirtyNodes}
	}
	return out
}

// TestStepObserverParity: the full record stream seen by an observer
// must agree between the blocking and step paths on every
// deterministic field, round by round.
func TestStepObserverParity(t *testing.T) {
	g := graph.RandomRegular(64, 6, 11)
	opts := Options{Seed: 42}
	gObs, sObs := &collectObserver{}, &collectObserver{}
	o1 := opts
	o1.Observer = gObs
	if _, err := Run(context.Background(), g, o1, phasedProgram); err != nil {
		t.Fatal(err)
	}
	o2 := opts
	o2.Observer = sObs
	if _, err := Run(context.Background(), g, o2, &stepPhased{}); err != nil {
		t.Fatal(err)
	}
	gt, st := deterministicTail(gObs.recs), deterministicTail(sObs.recs)
	if len(gt) != len(st) {
		t.Fatalf("blocking path produced %d records, step path %d", len(gt), len(st))
	}
	for i := range gt {
		if gt[i] != st[i] {
			t.Fatalf("record %d diverged: blocking %+v, step %+v", i, gt[i], st[i])
		}
	}
}

// TestStepFlightRecorderTailParity: a FlightRecorder armed on each path
// retains the same final rounds, so post-mortem tails from step runs
// read exactly like blocking ones.
func TestStepFlightRecorderTailParity(t *testing.T) {
	g := graph.RandomRegular(64, 6, 11)
	gRec, sRec := NewFlightRecorder(8), NewFlightRecorder(8)
	o1 := Options{Seed: 42, Observer: gRec}
	if _, err := Run(context.Background(), g, o1, chatterProgram); err != nil {
		t.Fatal(err)
	}
	o2 := Options{Seed: 42, Observer: sRec}
	if _, err := Run(context.Background(), g, o2, &stepChatter{}); err != nil {
		t.Fatal(err)
	}
	gt, st := deterministicTail(gRec.Tail()), deterministicTail(sRec.Tail())
	if len(gt) == 0 || len(gt) != len(st) {
		t.Fatalf("tail lengths: blocking %d, step %d", len(gt), len(st))
	}
	for i := range gt {
		if gt[i] != st[i] {
			t.Fatalf("tail record %d diverged: blocking %+v, step %+v", i, gt[i], st[i])
		}
	}
}

// TestStepNilObserverWarmRunAllocs: with no observer, a warm engine
// re-running a step program must allocate only the returned Stats —
// the step loop itself (dispatch, park bookkeeping, wake scan) is
// allocation-free, which is the point of compiling programs to state
// machines.
func TestStepNilObserverWarmRunAllocs(t *testing.T) {
	g := graph.RandomRegular(128, 6, 9)
	eng := NewEngine(Options{Seed: 7})
	defer eng.Close()
	prog := newStepExchange(4)
	if _, err := eng.Run(context.Background(), g, prog); err != nil {
		t.Fatal(err) // cold run: slabs and program state allocate here
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := eng.Run(context.Background(), g, prog); err != nil {
			t.Fatal(err)
		}
	})
	// One allocation for the returned *Stats; a tiny slack for the
	// runtime's occasional map/stack bookkeeping.
	if avg > 3 {
		t.Fatalf("warm nil-observer step run allocated %.1f times, want <= 3", avg)
	}
	t.Logf("warm step run allocations: %.1f", avg)
}

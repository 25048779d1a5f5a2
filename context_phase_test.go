package distmincut

import (
	"context"
	"errors"
	"testing"
	"time"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
)

// TestCancelAtEachPhaseBoundary cancels the exact pipeline inside each
// of its phases — BFS, first MST, packing orchestration (a later
// tree's MST), respect sweep, and the packing tail (the last tree) —
// and asserts the contract the service relies on: the error wraps
// ctx.Err() (context.Canceled), and the engine is left clean (a warm
// rerun on the same engine completes and matches a fresh engine's
// stats bit for bit).
//
// Phase targets are derived from a reference run's marks: packing
// emits begin:/end: marks for every mst and respect span from node 0,
// BFS is everything before the first mark, and the tail runs from the
// last tree's begin:mst to the end:pack that closes the packing. Every
// target must fall inside the run, so no point is ever skipped. The run
// cancels its own context from its round observer once delivery
// reaches the target round, so the cancel lands in that round however
// the test process is scheduled.
func TestCancelAtEachPhaseBoundary(t *testing.T) {
	g := graph.PlantedCut(48, 48, 3, 0.4, 5)
	opts := func() *Options { return &Options{Seed: 2} }

	ref, err := MinCut(g, opts())
	if err != nil {
		t.Fatal(err)
	}
	marks := ref.Stats.Marks
	if len(marks) == 0 {
		t.Fatal("reference run recorded no phase marks")
	}
	var firstMST, endFirstMST, laterMST, firstRespect, endRespect int
	var lastMST, tailBegin, endPack int
	for _, m := range marks {
		switch m.Label {
		case "begin:mst":
			if firstMST == 0 {
				firstMST = m.Round
			} else if laterMST == 0 && endRespect > 0 {
				// First MST of a later packing iteration: the packing
				// orchestration is interleaving trees by now.
				laterMST = m.Round
			}
			lastMST = m.Round
		case "end:mst":
			if endFirstMST == 0 {
				endFirstMST = m.Round
			}
		case "begin:respect":
			if firstRespect == 0 {
				firstRespect = m.Round
			}
		case "end:respect":
			if endRespect == 0 {
				endRespect = m.Round
			}
		case "end:pack":
			tailBegin, endPack = lastMST, m.Round
		}
	}
	phases := []struct {
		name   string
		target int
	}{
		{"bfs", firstMST / 2},
		{"mst", (firstMST + endFirstMST) / 2},
		{"packing", laterMST},
		{"respect", (firstRespect + endRespect) / 2},
		{"tail", (tailBegin + endPack) / 2},
	}
	for _, ph := range phases {
		if ph.target < 1 || ph.target >= ref.Rounds {
			t.Fatalf("%s: target round %d outside the run's %d rounds", ph.name, ph.target, ref.Rounds)
		}
	}

	eng := congest.NewEngine(congest.Options{})
	defer eng.Close()
	for _, ph := range phases {
		t.Run(ph.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			o := opts()
			o.Engine = eng
			o.Observer = &cancelAtRound{target: ph.target, cancel: cancel}
			if _, err := MinCutContext(ctx, g, o); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancel in %s: err = %v, want context.Canceled", ph.name, err)
			}

			// Clean engine state: the same warm engine reruns to
			// completion and matches the fresh reference bit for bit.
			res, err := MinCutContext(context.Background(), g, &Options{Seed: 2, Engine: eng})
			if err != nil {
				t.Fatalf("warm rerun after %s abort: %v", ph.name, err)
			}
			if res.Value != ref.Value || res.Rounds != ref.Rounds || res.Messages != ref.Messages {
				t.Fatalf("warm rerun after %s abort diverged: value/rounds/messages %d/%d/%d, want %d/%d/%d",
					ph.name, res.Value, res.Rounds, res.Messages, ref.Value, ref.Rounds, ref.Messages)
			}
		})
	}
}

// cancelAtRound is a round observer that cancels its run's context
// once delivery reaches round target.
type cancelAtRound struct {
	target int
	cancel context.CancelFunc
}

func (c *cancelAtRound) ObserveRound(rec congest.RoundRecord) {
	if rec.Round >= c.target {
		c.cancel()
	}
}

// TestContextIsTheOnlyWallClockStop pins the stop contract the
// service's StateDeadline classification depends on: a context
// deadline surfaces only as context.DeadlineExceeded, whichever round
// it lands in, and a round budget only as congest.ErrMaxRounds. The 40
// deadlines of 5–11 ms land across the pipeline's phases.
func TestContextIsTheOnlyWallClockStop(t *testing.T) {
	g := graph.PlantedCut(64, 64, 3, 0.3, 7)
	failed := 0
	for i := 0; i < 40; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(5+i%7)*time.Millisecond)
		_, err := MinCutContext(ctx, g, nil)
		cancel()
		if err == nil {
			continue
		}
		failed++
		if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, congest.ErrMaxRounds) {
			t.Fatalf("call %d: err = %v, want only context.DeadlineExceeded", i, err)
		}
	}
	t.Logf("%d of 40 calls stopped by their deadline", failed)

	_, err := MinCut(g, &Options{MaxRounds: 50})
	if !errors.Is(err, congest.ErrMaxRounds) {
		t.Fatalf("MaxRounds: err = %v, want congest.ErrMaxRounds", err)
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		t.Fatalf("MaxRounds: err = %v, must not match a context error", err)
	}
	var be *congest.BudgetError
	if !errors.As(err, &be) || be.RoundLimit != 50 || be.Rounds <= 50 {
		t.Fatalf("MaxRounds: err = %v, want a *congest.BudgetError past round 50", err)
	}
}

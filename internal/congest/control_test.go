package congest

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"distmincut/internal/graph"
)

// pingPong is a two-node program exchanging one message per round for
// the given number of iterations.
func pingPong(iters int) func(*Node) {
	return func(nd *Node) {
		for i := 0; i < iters; i++ {
			nd.Send(0, Message{Kind: 1, Tag: uint32(i)})
			nd.Recv(MatchKindTag(1, uint32(i)))
		}
	}
}

func TestInterruptPreClosed(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := graph.Path(2)
	stats, err := Run(ctx, g, Options{}, pingPong(1_000_000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if stats == nil {
		t.Fatal("want partial stats on interrupt")
	}
	if stats.Rounds > 2 {
		t.Fatalf("pre-canceled context should abort at the first round boundary, ran %d rounds", stats.Rounds)
	}
}

func TestInterruptMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pg := &Progress{}
	g := graph.Path(2)
	done := make(chan struct{})
	var stats *Stats
	var err error
	go func() {
		defer close(done)
		stats, err = Run(ctx, g, Options{Progress: pg}, pingPong(5_000_000))
	}()
	// Wait until the run has visibly progressed, then cancel it.
	deadline := time.Now().Add(10 * time.Second)
	for pg.Round() < 100 {
		if time.Now().After(deadline) {
			t.Fatal("run never reached round 100")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("canceled run did not return")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if stats.Rounds < 100 {
		t.Fatalf("interrupt fired after round 100 but stats report %d rounds", stats.Rounds)
	}
	if stats.Rounds >= 5_000_000 {
		t.Fatal("run was not actually interrupted")
	}
}

func TestProgressGaugeMatchesStats(t *testing.T) {
	pg := &Progress{}
	g := graph.Cycle(16)
	stats, err := Run(context.Background(), g, Options{Progress: pg}, func(nd *Node) {
		for i := 0; i < 50; i++ {
			nd.SendAll(Message{Kind: 1, Tag: uint32(i)})
			for k := 0; k < nd.Degree(); k++ {
				nd.Recv(MatchKindTag(1, uint32(i)))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := pg.Round(); got != stats.Rounds {
		t.Errorf("Progress.Round = %d, Stats.Rounds = %d", got, stats.Rounds)
	}
	if got := pg.Delivered(); got != stats.Delivered {
		t.Errorf("Progress.Delivered = %d, Stats.Delivered = %d", got, stats.Delivered)
	}
	if stats.Rounds == 0 || stats.Delivered == 0 {
		t.Fatalf("degenerate run: %v", stats)
	}
}

func TestCheckPayloadOverflowFailsLoudly(t *testing.T) {
	g := graph.Path(2)
	_, err := Run(context.Background(), g, Options{}, func(nd *Node) {
		if nd.ID() == 0 {
			nd.Send(0, Message{Kind: 1, A: PayloadLimit + 1})
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %v", err)
	}
	if pe.Node != 0 {
		t.Errorf("panic attributed to node %d, want 0", pe.Node)
	}
	if msg, ok := pe.Value.(string); !ok || !strings.Contains(msg, "packing overflow") {
		t.Errorf("panic value %v does not name the payload guard", pe.Value)
	}
}

func TestCheckPayloadNegativeOverflow(t *testing.T) {
	g := graph.Path(2)
	_, err := Run(context.Background(), g, Options{}, func(nd *Node) {
		if nd.ID() == 0 {
			nd.Send(0, Message{Kind: 1, D: -PayloadLimit - 1})
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %v", err)
	}
}

func TestCheckPayloadAllowsLegitimateTraffic(t *testing.T) {
	g := graph.Cycle(8)
	stats, err := Run(context.Background(), g, Options{}, func(nd *Node) {
		nd.SendAll(Message{Kind: 1, A: -1, B: PayloadLimit, C: -PayloadLimit, D: math.MinInt64})
		for i := 0; i < nd.Degree(); i++ {
			nd.Recv(MatchKind(1))
		}
	})
	if err != nil {
		t.Fatalf("in-range payloads and sentinels must pass the guard: %v", err)
	}
	if stats.Leftover != 0 {
		t.Fatalf("leftover %d", stats.Leftover)
	}
}

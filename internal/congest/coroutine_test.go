package congest

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"distmincut/internal/graph"
)

// Lifecycle tests for the coroutines that host blocking programs: how
// many exist during a run, that aborts release them, that idle ones
// are stopped once the garbage collector trims the pool, and that a
// program's panic is reported with its own stack.

// raceEnabled is set under the race detector (see race_test.go), whose
// sync.Pool deliberately drops a share of Puts: the pool then no longer
// bounds how many coroutines exist at once.
var raceEnabled bool

// warmActivation runs one fanned-out activation so the process-wide
// activation helpers exist before a test takes a goroutine baseline.
func warmActivation(t *testing.T) {
	t.Helper()
	if _, err := Run(context.Background(), graph.Path(4*parallelStepMin), Options{}, func(*Node) {}); err != nil {
		t.Fatal(err)
	}
}

// TestImmediateExitGoroutineBound: programs that exit without parking
// return their coroutine to the pool within the activation, so a
// 100k-node run keeps the goroutine count within baseline +
// GOMAXPROCS + a small constant — one coroutine in use per activation
// worker — instead of one per node.
func TestImmediateExitGoroutineBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled coroutines at random")
	}
	warmActivation(t)
	base := runtime.NumGoroutine()
	var peak atomic.Int64
	_, err := Run(context.Background(), graph.Path(100_000), Options{}, func(*Node) {
		n := int64(runtime.NumGoroutine())
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if limit := int64(base + runtime.GOMAXPROCS(0) + 4); peak.Load() > limit {
		t.Fatalf("peak goroutines %d during the run, want <= %d (baseline %d)", peak.Load(), limit, base)
	}
}

// boundNodes counts the engine's nodes still holding a coroutine.
func boundNodes(e *Engine) int {
	bound := 0
	for _, nd := range e.nodes {
		if nd.co != nil {
			bound++
		}
	}
	return bound
}

// TestAbortReleasesCoroutines: after a MaxRounds, context-cancel, or
// node-panic abort, no node still holds a coroutine (every parked
// program was unwound), and a warm rerun on the same engine is
// bit-identical to a fresh run.
func TestAbortReleasesCoroutines(t *testing.T) {
	g := graph.RandomRegular(128, 4, 3)
	fresh, err := Run(context.Background(), g, Options{}, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 0 and its first neighbor bounce a token forever; node 5
	// optionally panics at round 3; everyone else waits in Recv.
	program := func(panicky bool) func(*Node) {
		return func(nd *Node) {
			peer := g.Adj(0)[0].Peer
			switch {
			case nd.ID() == 0 || nd.ID() == peer:
				other := peer
				if nd.ID() == peer {
					other = 0
				}
				p := nd.PortTo(other)
				if nd.ID() == 0 {
					nd.Send(p, Message{Kind: kindToken})
				}
				for {
					_, m := nd.Recv(MatchKindTag(kindToken, 0))
					nd.Send(p, m)
				}
			case panicky && nd.ID() == 5:
				nd.Sleep(3)
				panic("node 5 fails")
			default:
				nd.Recv(MatchKind(kindData))
			}
		}
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name    string
		ctx     context.Context
		opts    Options
		panicky bool
		want    func(error) bool
	}{
		{"max-rounds", context.Background(), Options{MaxRounds: 20}, false,
			func(err error) bool { return errors.Is(err, ErrMaxRounds) }},
		{"interrupt", canceled, Options{}, false,
			func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"panic", context.Background(), Options{}, true,
			func(err error) bool { var pe *PanicError; return errors.As(err, &pe) && pe.Node == 5 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(c.opts)
			defer e.Close()
			if _, err := e.Run(c.ctx, g, program(c.panicky)); !c.want(err) {
				t.Fatalf("err = %v", err)
			}
			if b := boundNodes(e); b != 0 {
				t.Fatalf("%d nodes still hold a coroutine after the abort", b)
			}
			e.SetOptions(Options{})
			stats, err := e.Run(context.Background(), g, chatterProgram)
			if err != nil {
				t.Fatal(err)
			}
			if keyOf(stats) != keyOf(fresh) {
				t.Fatalf("warm rerun diverged: got %+v, want %+v", keyOf(stats), keyOf(fresh))
			}
		})
	}
}

// TestPooledCoroutinesStopAfterGC: once an engine is closed and the
// garbage collector has trimmed the coroutine pool, every idle
// coroutine is stopped and the goroutine count returns to its
// baseline.
func TestPooledCoroutinesStopAfterGC(t *testing.T) {
	warmActivation(t)
	// settle collects garbage until the goroutine count is at most
	// limit, or has stopped falling for a few polls, or a timeout.
	settle := func(limit int) int {
		deadline := time.Now().Add(10 * time.Second)
		n, steady := runtime.NumGoroutine(), 0
		for n > limit && steady < 4 && time.Now().Before(deadline) {
			runtime.GC()
			time.Sleep(5 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m < n {
				steady = 0
			} else {
				steady++
			}
			n = m
		}
		return n
	}
	// Let coroutines pooled by earlier tests drain first; the
	// baseline is whatever remains.
	base := settle(0)
	e := NewEngine(Options{})
	// 512 nodes all park in Recv at once, so the run needs 512
	// coroutines simultaneously.
	stats, err := e.Run(context.Background(), graph.Cycle(512), func(nd *Node) {
		nd.SendAll(Message{Kind: kindData})
		for i := 0; i < nd.Degree(); i++ {
			nd.Recv(MatchKind(kindData))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 1024 {
		t.Fatalf("delivered %d, want 1024", stats.Delivered)
	}
	e.Close()
	if n := settle(base); n > base {
		t.Fatalf("%d goroutines after Close and GC, want <= baseline %d", n, base)
	}
}

// panickingProgram is a named frame for TestPanicStackNamesProgram.
func panickingProgram(nd *Node) {
	if nd.ID() == 1 {
		nd.Sleep(2)
		panic("deliberate")
	}
}

// TestPanicStackNamesProgram: a blocking program's panic is captured
// on its own coroutine, so PanicError.Stack names the panicking frame.
func TestPanicStackNamesProgram(t *testing.T) {
	_, err := Run(context.Background(), graph.Path(3), Options{}, panickingProgram)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Node != 1 {
		t.Fatalf("err = %v, want PanicError from node 1", err)
	}
	if !strings.Contains(pe.Stack, "panickingProgram") {
		t.Fatalf("stack does not name the program:\n%s", pe.Stack)
	}
}

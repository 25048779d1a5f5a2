package congest

import (
	"context"
	"errors"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distmincut/internal/graph"
)

// Message kinds of the two lanes in the fork tests.
const (
	kindMainLane uint8 = 0x60 + iota
	kindForkLane
)

// TestForkSharesPortBandwidth: both lanes of node 0 send k messages on
// its one port, and both lanes of node 1 receive them. The port still
// carries one message per round in total, so the 2k messages arrive
// one per round over rounds 1..2k. Fork starts its function at once,
// so the forked lane's messages are staged, and arrive, first; each
// lane receives its own messages in FIFO order.
func TestForkSharesPortBandwidth(t *testing.T) {
	const k = 6
	var mu sync.Mutex
	perRound := map[int]int{}
	got := map[uint8][]int64{}
	last := map[uint8]int{} // round of each lane's last receipt
	recv := func(nd *Node, kind uint8) {
		for i := 0; i < k; i++ {
			_, m := nd.Recv(MatchKind(kind))
			mu.Lock()
			perRound[nd.Round()]++
			got[kind] = append(got[kind], m.A)
			last[kind] = nd.Round()
			mu.Unlock()
		}
	}
	stats, err := Run(context.Background(), graph.Path(2), Options{}, func(nd *Node) {
		if nd.ID() == 0 {
			join := nd.Fork(func(nd *Node) {
				for i := 0; i < k; i++ {
					nd.Send(0, Message{Kind: kindForkLane, A: int64(i)})
				}
			})
			for i := 0; i < k; i++ {
				nd.Send(0, Message{Kind: kindMainLane, A: int64(k + i)})
			}
			join()
			return
		}
		join := nd.Fork(func(nd *Node) { recv(nd, kindForkLane) })
		recv(nd, kindMainLane)
		join()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 2*k || stats.Delivered != 2*k || stats.Leftover != 0 {
		t.Fatalf("rounds %d, delivered %d, leftover %d; want %d, %d, 0", stats.Rounds, stats.Delivered, stats.Leftover, 2*k, 2*k)
	}
	for r := 1; r <= 2*k; r++ {
		if perRound[r] != 1 {
			t.Fatalf("round %d delivered %d messages to node 1, want 1 (%v)", r, perRound[r], perRound)
		}
	}
	for i := 0; i < k; i++ {
		if got[kindForkLane][i] != int64(i) || got[kindMainLane][i] != int64(k+i) {
			t.Fatalf("lanes received %v and %v, want 0..%d and %d..%d in order", got[kindForkLane], got[kindMainLane], k-1, k, 2*k-1)
		}
	}
	if last[kindForkLane] != k || last[kindMainLane] != 2*k {
		t.Fatalf("the lanes' last messages arrived in rounds %d and %d, want %d and %d",
			last[kindForkLane], last[kindMainLane], k, 2*k)
	}
}

// laneChatter is one lane's share of forkChatter: random bursts of
// kind-tagged traffic to every neighbor, sleeps, and a close marker per
// port, consumed until every port delivered its marker.
func laneChatter(nd *Node, kind uint8, rng *rand.Rand) int64 {
	reps := 1 + rng.IntN(4)
	for i := 0; i < reps; i++ {
		nd.SendAll(Message{Kind: kind, A: int64(nd.ID())})
		if rng.IntN(3) == 0 {
			nd.Sleep(1 + rng.IntN(3))
		}
	}
	nd.SendAll(Message{Kind: kind, B: 1})
	var sum int64
	for markers := 0; markers < nd.Degree(); {
		_, m := nd.Recv(MatchKind(kind))
		sum += m.A
		markers += int(m.B)
	}
	return sum
}

// forkChatter runs laneChatter on both lanes of every node; node 0
// marks both lanes' phases. sums receives each node's two tallies.
func forkChatter(sums [][2]int64) func(*Node) {
	return func(nd *Node) {
		if nd.ID() == 0 {
			nd.Mark("begin:main")
		}
		join := nd.Fork(func(nd *Node) {
			if nd.ID() == 0 {
				nd.Mark("begin:fork")
			}
			sums[nd.ID()][1] = laneChatter(nd, kindForkLane, rand.New(rand.NewPCG(7, uint64(nd.ID()))))
			if nd.ID() == 0 {
				nd.Mark("end:fork")
			}
		})
		sums[nd.ID()][0] = laneChatter(nd, kindMainLane, rand.New(rand.NewPCG(8, uint64(nd.ID()))))
		join()
		if nd.ID() == 0 {
			nd.Mark("end:main")
		}
	}
}

// TestForkDeterministicAcrossGOMAXPROCS: a two-lane workload on 128
// nodes (wake sets above the parallel threshold) gives identical Stats,
// marks and per-lane results at GOMAXPROCS 1 and 2.
func TestForkDeterministicAcrossGOMAXPROCS(t *testing.T) {
	g := graph.RandomRegular(128, 6, 5)
	type outcome struct {
		key   statsKey
		marks []Mark
		sums  [][2]int64
	}
	run := func(procs int) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		sums := make([][2]int64, g.N())
		stats, err := Run(context.Background(), g, Options{}, forkChatter(sums))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Leftover != 0 {
			t.Fatalf("left %d messages", stats.Leftover)
		}
		marks := append([]Mark(nil), stats.Marks...)
		for i := range marks {
			marks[i].Nanos = 0
		}
		return outcome{keyOf(stats), marks, sums}
	}
	a, b := run(1), run(2)
	if a.key != b.key {
		t.Fatalf("stats differ: GOMAXPROCS=1 %+v, 2 %+v", a.key, b.key)
	}
	if len(a.marks) != 4 || len(b.marks) != 4 {
		t.Fatalf("marks %v and %v, want 4 each", a.marks, b.marks)
	}
	for i := range a.marks {
		if a.marks[i] != b.marks[i] {
			t.Fatalf("mark %d: %+v vs %+v", i, a.marks[i], b.marks[i])
		}
	}
	if a.marks[1].Label != "begin:fork" || a.marks[1].Lane != 1 || a.marks[0].Lane != 0 {
		t.Fatalf("marks do not record their lanes: %+v", a.marks)
	}
	for v := range a.sums {
		if a.sums[v] != b.sums[v] {
			t.Fatalf("node %d tallies %v vs %v", v, a.sums[v], b.sums[v])
		}
	}
}

// TestForkPanicIsNodePanicError: a panic in a forked lane fails the run
// with that node's *PanicError, and the abort unwinds every lane.
func TestForkPanicIsNodePanicError(t *testing.T) {
	e := NewEngine(Options{})
	defer e.Close()
	_, err := e.Run(context.Background(), graph.Cycle(4), func(nd *Node) {
		join := nd.Fork(func(nd *Node) {
			nd.Sleep(2)
			if nd.ID() == 2 {
				panic("boom in fork")
			}
			nd.Recv(MatchKind(kindForkLane))
		})
		nd.Recv(MatchKind(kindMainLane))
		join()
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Node != 2 || !strings.Contains(pe.Error(), "boom in fork") {
		t.Fatalf("err = %v, want node 2's PanicError", err)
	}
	if b := boundNodes(e); b != 0 {
		t.Fatalf("%d nodes still hold a coroutine after the abort", b)
	}
}

// TestForkMisuseFails: a nested fork and a program that returns without
// joining its fork fail the node.
func TestForkMisuseFails(t *testing.T) {
	for name, tc := range map[string]struct {
		prog func(*Node)
		want string
	}{
		"nested": {func(nd *Node) {
			join := nd.Fork(func(nd *Node) { nd.Fork(func(*Node) {}) })
			join()
		}, "nested Fork"},
		"unjoined": {func(nd *Node) {
			nd.Fork(func(nd *Node) { nd.Sleep(3) })
		}, "without joining"},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := Run(context.Background(), graph.Path(2), Options{}, tc.prog)
			var pe *PanicError
			if !errors.As(err, &pe) || !strings.Contains(pe.Error(), tc.want) {
				t.Fatalf("err = %v, want a PanicError mentioning %q", err, tc.want)
			}
		})
	}
}

// TestForkCancelUnwindsBothLanes: canceling the context stops a run
// whose nodes ping-pong on both lanes; both lanes' deferred calls run
// and no node keeps a coroutine.
func TestForkCancelUnwindsBothLanes(t *testing.T) {
	ping := func(nd *Node, kind uint8) {
		for i := 0; ; i++ {
			nd.Send(0, Message{Kind: kind, Tag: uint32(i)})
			nd.Recv(MatchKindTag(kind, uint32(i)))
		}
	}
	var unwound atomic.Int32
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pg := &Progress{}
	e := NewEngine(Options{Progress: pg})
	defer e.Close()
	done := make(chan error)
	go func() {
		_, err := e.Run(ctx, graph.Path(2), func(nd *Node) {
			defer unwound.Add(1)
			join := nd.Fork(func(nd *Node) {
				defer unwound.Add(1)
				ping(nd, kindForkLane)
			})
			defer join()
			ping(nd, kindMainLane)
		})
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for pg.Round() < 100 {
		if time.Now().After(deadline) {
			t.Fatal("run never reached round 100")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("canceled run did not return")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := unwound.Load(); n != 4 {
		t.Fatalf("%d lanes unwound, want 4 (two nodes, two lanes each)", n)
	}
	if b := boundNodes(e); b != 0 {
		t.Fatalf("%d nodes still hold a coroutine after the cancel", b)
	}
}

// TestForkParkedForeverDeadlocks: a forked lane waiting for a message
// nobody sends, while its program waits to join it, is a deadlock.
func TestForkParkedForeverDeadlocks(t *testing.T) {
	_, err := Run(context.Background(), graph.Path(2), Options{}, func(nd *Node) {
		join := nd.Fork(func(nd *Node) { nd.Recv(MatchKind(kindForkLane)) })
		join()
	})
	if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), "[0 1]") {
		t.Fatalf("err = %v, want ErrDeadlock naming both nodes", err)
	}
}

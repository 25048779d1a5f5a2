package congest

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"distmincut/internal/graph"
)

const (
	kindToken uint8 = iota + 1
	kindFlood
	kindData
)

// TestPingPongRounds: two nodes bounce a token k times; the run must
// take exactly 2k rounds (one round per hop).
func TestPingPongRounds(t *testing.T) {
	g := graph.Path(2)
	const k = 7
	stats, err := Run(context.Background(), g, Options{}, func(nd *Node) {
		for i := 0; i < k; i++ {
			if nd.ID() == 0 {
				nd.Send(0, Message{Kind: kindToken, A: int64(i)})
				_, m := nd.Recv(MatchKindTag(kindToken, 0))
				if m.A != int64(i) {
					panic("token payload corrupted")
				}
			} else {
				_, m := nd.Recv(MatchKindTag(kindToken, 0))
				nd.Send(0, m)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 2*k {
		t.Fatalf("ping-pong rounds = %d, want %d", stats.Rounds, 2*k)
	}
	if stats.Leftover != 0 {
		t.Fatalf("leftover = %d, want 0", stats.Leftover)
	}
}

// TestFloodFillRounds: a token floods from node 0; every node learns it
// at a round equal to its BFS distance.
func TestFloodFillRounds(t *testing.T) {
	g := graph.Grid(5, 8)
	dist, _ := graph.BFS(g, 0)
	got := make([]int, g.N())
	stats, err := Run(context.Background(), g, Options{}, func(nd *Node) {
		if nd.ID() == 0 {
			nd.SendAll(Message{Kind: kindFlood})
			got[0] = 0
			return
		}
		nd.Recv(MatchKind(kindFlood))
		got[nd.ID()] = nd.Round()
		nd.SendAll(Message{Kind: kindFlood})
		// Absorb floods from remaining neighbors so nothing is left over.
		for i := 0; i < nd.Degree()-1; i++ {
			nd.Recv(MatchKind(kindFlood))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := range got {
		if got[v] != dist[v] {
			t.Fatalf("node %d flooded at round %d, BFS distance %d", v, got[v], dist[v])
		}
	}
	ecc := 0
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	// Last delivery happens one round after the farthest node re-floods.
	if stats.Rounds < ecc || stats.Rounds > ecc+1 {
		t.Fatalf("flood rounds = %d, eccentricity = %d", stats.Rounds, ecc)
	}
}

// TestPipeliningCharge: sending k messages over one edge must take
// exactly k rounds — the per-edge FIFO models CONGEST bandwidth.
func TestPipeliningCharge(t *testing.T) {
	g := graph.Path(2)
	const k = 25
	stats, err := Run(context.Background(), g, Options{}, func(nd *Node) {
		if nd.ID() == 0 {
			for i := 0; i < k; i++ {
				nd.Send(0, Message{Kind: kindData, A: int64(i)})
			}
			return
		}
		for i := 0; i < k; i++ {
			_, m := nd.Recv(MatchKind(kindData))
			if m.A != int64(i) {
				panic("FIFO order violated")
			}
			if nd.Round() != i+1 {
				panic("pipelining round charge wrong")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != k {
		t.Fatalf("pipelined transfer rounds = %d, want %d", stats.Rounds, k)
	}
}

// TestSleepFastForward: idle sleeping must advance the round counter
// without per-round work, and Sleep must wake at the exact round.
func TestSleepFastForward(t *testing.T) {
	g := graph.Path(3)
	const target = 1000
	stats, err := Run(context.Background(), g, Options{}, func(nd *Node) {
		nd.Sleep(target)
		if nd.Round() != target {
			panic("woke at wrong round")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != target {
		t.Fatalf("rounds = %d, want %d", stats.Rounds, target)
	}
	if stats.Wakeups > 10 {
		t.Fatalf("fast-forward did %d wakeups; idle rounds were not skipped", stats.Wakeups)
	}
}

// TestSelectiveReceive: messages of a later kind must not disturb a
// Recv waiting for an earlier kind, and stay buffered for later.
func TestSelectiveReceive(t *testing.T) {
	g := graph.Path(2)
	_, err := Run(context.Background(), g, Options{}, func(nd *Node) {
		if nd.ID() == 0 {
			nd.Send(0, Message{Kind: kindData, A: 99}) // arrives first
			nd.Send(0, Message{Kind: kindToken, A: 1}) // arrives second
			return
		}
		_, m := nd.Recv(MatchKind(kindToken)) // waits past the data msg
		if m.A != 1 {
			panic("wrong token")
		}
		_, m2 := nd.Recv(MatchKind(kindData))
		if m2.A != 99 {
			panic("buffered data lost")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	g := graph.Path(2)
	_, err := Run(context.Background(), g, Options{}, func(nd *Node) {
		nd.Recv(MatchKind(kindToken)) // nobody ever sends
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestPanicPropagation(t *testing.T) {
	g := graph.Cycle(4)
	_, err := Run(context.Background(), g, Options{}, func(nd *Node) {
		if nd.ID() == 2 {
			panic("boom")
		}
		nd.Recv(MatchKind(kindToken))
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if pe.Node != 2 || !strings.Contains(pe.Error(), "boom") {
		t.Fatalf("wrong panic attribution: %v", pe)
	}
}

// TestRecvNilMatchFails: Recv(nil) fails the run at the call with a
// *PanicError naming the node, whether its inbox is empty or already
// holds a message.
func TestRecvNilMatchFails(t *testing.T) {
	for _, tc := range []struct {
		name     string
		buffered bool
	}{{"empty", false}, {"buffered", true}} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(context.Background(), graph.Path(2), Options{}, func(nd *Node) {
				if nd.ID() == 0 {
					nd.Send(0, Message{Kind: kindData})
					return
				}
				if tc.buffered {
					nd.Sleep(2) // node 0's message arrives meanwhile
				}
				nd.Recv(nil)
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *PanicError", err)
			}
			if pe.Node != 1 || !strings.Contains(pe.Error(), "nil match") {
				t.Fatalf("panic error = %v, want node 1 and a nil match", pe)
			}
		})
	}
}

// TestSleepAtLeastOneRound: Sleep with a non-positive count parks for
// one round.
func TestSleepAtLeastOneRound(t *testing.T) {
	stats, err := Run(context.Background(), graph.Path(3), Options{}, func(nd *Node) {
		nd.Sleep(-5)
		nd.Sleep(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", stats.Rounds)
	}
}

func TestMaxRoundsAborts(t *testing.T) {
	g := graph.Path(2)
	stats, err := Run(context.Background(), g, Options{MaxRounds: 10}, func(nd *Node) {
		for {
			if nd.ID() == 0 {
				nd.Send(0, Message{Kind: kindToken})
				nd.Recv(MatchKindTag(kindToken, 0))
			} else {
				nd.Recv(MatchKindTag(kindToken, 0))
				nd.Send(0, Message{Kind: kindToken})
			}
		}
	})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if be.RoundLimit != 10 {
		t.Fatalf("BudgetError = %+v, want RoundLimit=10", be)
	}
	if be.Rounds <= 10 {
		t.Fatalf("BudgetError.Rounds = %d, want > 10", be.Rounds)
	}
	if stats == nil || stats.Rounds != be.Rounds || stats.Delivered != be.Messages {
		t.Fatalf("partial stats = %+v, want Rounds=%d Delivered=%d as in %+v", stats, be.Rounds, be.Messages, be)
	}
	if want := fmt.Sprintf("congest: exceeded MaxRounds (10) at round %d (%d messages)", stats.Rounds, stats.Delivered); err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}

func TestDeadlineAborts(t *testing.T) {
	g := graph.Path(2)
	ping := func(nd *Node) {
		for {
			if nd.ID() == 0 {
				nd.Send(0, Message{Kind: kindToken})
				nd.Recv(MatchKindTag(kindToken, 0))
			} else {
				nd.Recv(MatchKindTag(kindToken, 0))
				nd.Send(0, Message{Kind: kindToken})
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	stats, err := Run(ctx, g, Options{}, ping)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, must not match ErrMaxRounds on a wall-clock trip", err)
	}
	if stats == nil || stats.Rounds <= 0 || stats.Delivered <= 0 {
		t.Fatalf("partial stats = %+v, want partial progress recorded", stats)
	}
	if want := fmt.Sprintf("round %d (%d messages)", stats.Rounds, stats.Delivered); !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to report %q", err, want)
	}

	// An already-expired context aborts at the first boundary, and the
	// engine stays reusable: a warm rerun without it matches a fresh
	// bounded run.
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	e := NewEngine(Options{})
	if _, err := e.Run(expired, g, ping); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired context: err = %v, want context.DeadlineExceeded", err)
	}
	bounded := func(nd *Node) {
		for i := 0; i < 5; i++ {
			if nd.ID() == 0 {
				nd.Send(0, Message{Kind: kindToken})
				nd.Recv(MatchKindTag(kindToken, 0))
			} else {
				nd.Recv(MatchKindTag(kindToken, 0))
				nd.Send(0, Message{Kind: kindToken})
			}
		}
	}
	warm, err := e.Run(context.Background(), g, bounded)
	if err != nil {
		t.Fatalf("warm rerun after deadline abort: %v", err)
	}
	e.Close()
	fresh, err := Run(context.Background(), g, Options{}, bounded)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Rounds != fresh.Rounds || warm.Delivered != fresh.Delivered {
		t.Fatalf("warm stats %+v != fresh %+v after deadline abort", warm, fresh)
	}
}

// TestDeterminism: identical runs produce identical stats, including on
// graphs where many nodes are active simultaneously and each draws from
// its own seeded generator.
func TestDeterminism(t *testing.T) {
	g := graph.GNP(40, 0.2, 3)
	run := func() *Stats {
		stats, err := Run(context.Background(), g, Options{}, func(nd *Node) {
			// Send a random number of data messages to every neighbor,
			// then an end marker; consume until every port delivered
			// its marker. Terminates regardless of scheduling.
			reps := 2 + rand.New(rand.NewPCG(5, uint64(nd.ID()))).IntN(3)
			for i := 0; i < reps; i++ {
				nd.SendAll(Message{Kind: kindData, Tag: uint32(i), A: int64(nd.ID())})
			}
			nd.SendAll(Message{Kind: kindToken})
			for markers := 0; markers < nd.Degree(); {
				_, m := nd.Recv(MatchAny)
				if m.Kind == kindToken {
					markers++
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.Sent != b.Sent || a.Delivered != b.Delivered || a.Wakeups != b.Wakeups {
		t.Fatalf("non-deterministic runs: %v vs %v", a, b)
	}
}

// TestMarkPhases: phase accounting via begin:/end: marks.
func TestMarkPhases(t *testing.T) {
	g := graph.Path(2)
	stats, err := Run(context.Background(), g, Options{}, func(nd *Node) {
		if nd.ID() != 0 {
			nd.Recv(MatchKindTag(kindData, 0))
			return
		}
		nd.Mark("begin:xfer")
		nd.Send(0, Message{Kind: kindData})
		nd.Sleep(5)
		nd.Mark("end:xfer")
	})
	if err != nil {
		t.Fatal(err)
	}
	m := stats.Marks
	if len(m) != 2 || m[0].Label != "begin:xfer" || m[1].Label != "end:xfer" || m[1].Round-m[0].Round != 5 {
		t.Fatalf("marks = %+v, want begin:xfer and end:xfer 5 rounds apart", m)
	}
}

// Property test: queue preserves FIFO order under interleaved push/pop
// and removeAt of matching elements. Each run starts on a slab-carved
// ring, as every receive queue does, and pushes outnumber removals, so
// the ring wraps and grows out of its carve into pooled classes; the
// test fails if no run pushed onto a wrapped ring or grew a wrapped
// one.
func TestQueueProperty(t *testing.T) {
	var wrappedPushes, wrappedGrows int
	f := func(ops []uint8) bool {
		q := queue{buf: make([]Message, slabInCap)}
		var pool bufPool
		var model []Message
		next := int64(0)
		for _, op := range ops {
			switch op % 5 {
			case 0, 1, 2:
				switch {
				case q.n == len(q.buf) && q.head != 0:
					wrappedGrows++
				case q.n < len(q.buf) && q.head+q.n >= len(q.buf):
					wrappedPushes++
				}
				m := Message{A: next}
				next++
				q.push(&pool, m)
				model = append(model, m)
			case 3:
				gm, gok := q.pop(&pool)
				if len(model) == 0 {
					if gok {
						return false
					}
					continue
				}
				wm := model[0]
				model = model[1:]
				if !gok || gm != wm {
					return false
				}
			case 4:
				if q.len() == 0 {
					continue
				}
				i := int(op) % q.len()
				gm := q.removeAt(&pool, i)
				wm := model[i]
				model = append(model[:i], model[i+1:]...)
				if gm != wm {
					return false
				}
			}
		}
		if q.len() != len(model) {
			return false
		}
		for i := range model {
			if q.at(i) != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if wrappedPushes == 0 || wrappedGrows == 0 {
		t.Fatalf("ring coverage: %d pushes onto a wrapped ring, %d grows of a wrapped ring; want both > 0", wrappedPushes, wrappedGrows)
	}
}

// TestWeightsAndTopologyVisible: node programs see neighbor IDs, edge
// weights, and edge IDs consistent with the input graph.
func TestWeightsAndTopologyVisible(t *testing.T) {
	g := graph.AssignWeights(graph.Cycle(6), 2, 9, 4)
	_, err := Run(context.Background(), g, Options{}, func(nd *Node) {
		for p := 0; p < nd.Degree(); p++ {
			e := g.Edge(nd.EdgeID(p))
			if e.Other(nd.ID()) != nd.Peer(p) || e.W != nd.EdgeWeight(p) {
				panic("topology view inconsistent")
			}
			if nd.PortTo(nd.Peer(p)) != p {
				panic("PortTo inconsistent")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

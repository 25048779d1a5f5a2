package congest

import (
	"context"
	"errors"
	"testing"

	"distmincut/internal/graph"
)

func TestSingleNodeProgram(t *testing.T) {
	g := graph.Path(1)
	stats, err := Run(context.Background(), g, Options{}, func(nd *Node) {
		if nd.Degree() != 0 || nd.N() != 1 {
			panic("bad topology view")
		}
		nd.Sleep(3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", stats.Rounds)
	}
}

func TestInvalidPortPanicsAsError(t *testing.T) {
	g := graph.Path(2)
	_, err := Run(context.Background(), g, Options{}, func(nd *Node) {
		nd.Send(5, Message{})
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %v", err)
	}
}

func TestSendAllReachesEveryNeighbor(t *testing.T) {
	g := graph.Star(6)
	stats, err := Run(context.Background(), g, Options{}, func(nd *Node) {
		const kind = 9
		if nd.ID() == 0 {
			nd.SendAll(Message{Kind: kind, A: 7})
			for i := 0; i < nd.Degree(); i++ {
				nd.Recv(MatchKind(kind))
			}
			return
		}
		_, m := nd.Recv(MatchKind(kind))
		if m.A != 7 {
			panic("payload lost")
		}
		nd.Send(0, Message{Kind: kind, A: m.A})
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 10 {
		t.Fatalf("delivered %d messages, want 10", stats.Delivered)
	}
}

func TestTryRecvEmpty(t *testing.T) {
	g := graph.Path(2)
	_, err := Run(context.Background(), g, Options{}, func(nd *Node) {
		if _, _, ok := nd.TryRecv(MatchAny); ok {
			panic("TryRecv found a message in an empty inbox")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccessors(t *testing.T) {
	s := &Stats{Rounds: 2, Sent: 5, Delivered: 5, Wakeups: 3, Leftover: 1}
	if s.MessageBits() != 5*(8+32+64*PayloadWords) {
		t.Fatalf("MessageBits = %d", s.MessageBits())
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestLeftoverAccounting(t *testing.T) {
	g := graph.Path(2)
	stats, err := Run(context.Background(), g, Options{}, func(nd *Node) {
		if nd.ID() == 0 {
			nd.Send(0, Message{Kind: 1})
			nd.Send(0, Message{Kind: 2})
		} else {
			nd.Recv(MatchKind(1)) // kind 2 never consumed
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Leftover != 1 {
		t.Fatalf("leftover = %d, want 1", stats.Leftover)
	}
}

// TestMessageOrderWithinPort: FIFO per port even with selective
// receive consuming other kinds in between.
func TestMessageOrderWithinPort(t *testing.T) {
	g := graph.Path(2)
	_, err := Run(context.Background(), g, Options{}, func(nd *Node) {
		if nd.ID() == 0 {
			for i := 0; i < 5; i++ {
				nd.Send(0, Message{Kind: 1, A: int64(i)})
				nd.Send(0, Message{Kind: 2, A: int64(i)})
			}
			return
		}
		// Consume kind-2 first, then kind-1: both must be in order.
		for i := 0; i < 5; i++ {
			_, m := nd.Recv(MatchKind(2))
			if m.A != int64(i) {
				panic("kind-2 out of order")
			}
		}
		for i := 0; i < 5; i++ {
			_, m := nd.Recv(MatchKind(1))
			if m.A != int64(i) {
				panic("kind-1 out of order")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestManyConcurrentSleepers: heap-based wake ordering under many
// staggered deadlines.
func TestManyConcurrentSleepers(t *testing.T) {
	g := graph.Complete(10)
	stats, err := Run(context.Background(), g, Options{}, func(nd *Node) {
		for k := 0; k < 3; k++ {
			nd.Sleep(int(nd.ID())%4 + 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds == 0 || stats.Rounds > 12 {
		t.Fatalf("rounds = %d, want in (0, 12]", stats.Rounds)
	}
}

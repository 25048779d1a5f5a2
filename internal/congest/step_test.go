package congest

import (
	"context"
	"errors"
	"strings"
	"testing"

	"distmincut/internal/graph"
)

// stepPingPong is the step form of the two-node token bounce in
// TestPingPongRounds: node 0 sends the token and awaits its return k
// times; node 1 echoes whatever arrives.
type stepPingPong struct {
	k  int
	st []stepPingPongState
}

type stepPingPongState struct {
	started bool
	i       int
	match   MatchFunc
}

func (p *stepPingPong) InitRun(n int) {
	if cap(p.st) < n {
		p.st = make([]stepPingPongState, n)
	} else {
		p.st = p.st[:n]
		for i := range p.st {
			p.st[i] = stepPingPongState{}
		}
	}
}

func (p *stepPingPong) Step(nd *Node) Park {
	st := &p.st[nd.ID()]
	if !st.started {
		st.started = true
		st.match = MatchKindTag(kindToken, 0)
	}
	for st.i < p.k {
		if nd.ID() == 0 {
			// Each iteration: send, then await the echo.
			_, m, ok := nd.StepRecv(st.match)
			if !ok {
				nd.Send(0, Message{Kind: kindToken, A: int64(st.i)})
				return ParkRecv(st.match)
			}
			if m.A != int64(st.i) {
				panic("token payload corrupted")
			}
			st.i++
		} else {
			_, m, ok := nd.StepRecv(st.match)
			if !ok {
				return ParkRecv(st.match)
			}
			nd.Send(0, m)
			st.i++
		}
	}
	return ParkDone()
}

// TestStepPingPongRounds mirrors TestPingPongRounds on the step path:
// same token bounce, same exact 2k-round accounting.
func TestStepPingPongRounds(t *testing.T) {
	g := graph.Path(2)
	const k = 7
	stats, err := Run(context.Background(), g, Options{}, &stepPingPong{k: k})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 2*k {
		t.Fatalf("step ping-pong rounds = %d, want %d", stats.Rounds, 2*k)
	}
	if stats.Leftover != 0 {
		t.Fatalf("leftover = %d, want 0", stats.Leftover)
	}
}

// stepFuncProgram adapts per-node step closures for small tests: state
// lives in the closure environment keyed by node ID.
type stepFuncProgram struct {
	init func(n int)
	step func(nd *Node) Park
}

func (p *stepFuncProgram) InitRun(n int) {
	if p.init != nil {
		p.init(n)
	}
}
func (p *stepFuncProgram) Step(nd *Node) Park { return p.step(nd) }

// TestStepSleepFastForward: all nodes sleep with no traffic in flight;
// the engine must fast-forward the round clock to the wake deadline
// exactly as it does for blocking sleepers.
func TestStepSleepFastForward(t *testing.T) {
	g := graph.Path(3)
	var slept []bool
	prog := &stepFuncProgram{
		init: func(n int) { slept = make([]bool, n) },
		step: func(nd *Node) Park {
			if !slept[nd.ID()] {
				slept[nd.ID()] = true
				return ParkSleep(100)
			}
			return ParkDone()
		},
	}
	stats, err := Run(context.Background(), g, Options{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 100 {
		t.Fatalf("rounds = %d, want 100 (fast-forward)", stats.Rounds)
	}
	if stats.Wakeups != int64(g.N()) {
		t.Fatalf("wakeups = %d, want %d", stats.Wakeups, g.N())
	}
}

// TestStepDeadlock: step nodes parked in Recv with nothing in flight
// must trip the same ErrDeadlock as blocking ones.
func TestStepDeadlock(t *testing.T) {
	g := graph.Path(2)
	prog := &stepFuncProgram{
		step: func(nd *Node) Park { return ParkRecv(MatchAny) },
	}
	_, err := Run(context.Background(), g, Options{}, prog)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

// TestStepPanic: a panic inside Step must surface as a *PanicError
// naming the node, like a panic in a blocking program.
func TestStepPanic(t *testing.T) {
	g := graph.Path(4)
	prog := &stepFuncProgram{
		step: func(nd *Node) Park {
			if nd.ID() == 2 {
				panic("step boom")
			}
			return ParkDone()
		},
	}
	_, err := Run(context.Background(), g, Options{}, prog)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Node != 2 || pe.Value != "step boom" {
		t.Fatalf("panic error = %+v", pe)
	}
}

// TestStepNilMatchPark: returning ParkRecv(nil) is a program bug the
// engine must fail loudly (as a PanicError), not crash on.
func TestStepNilMatchPark(t *testing.T) {
	g := graph.Path(2)
	prog := &stepFuncProgram{
		step: func(nd *Node) Park {
			nd.SendAll(Message{Kind: kindData})
			return ParkRecv(nil)
		},
	}
	_, err := Run(context.Background(), g, Options{}, prog)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if !strings.Contains(pe.Error(), "nil match") {
		t.Fatalf("error %q does not mention the nil match", pe.Error())
	}
}

// TestStepBlockingCallPanics: calling the blocking Recv from a step
// program must fail the run with a descriptive PanicError instead of
// deadlocking the coordinator.
func TestStepBlockingCallPanics(t *testing.T) {
	g := graph.Path(2)
	prog := &stepFuncProgram{
		step: func(nd *Node) Park {
			nd.Recv(MatchAny) // illegal: no coroutine to park
			return ParkDone()
		},
	}
	_, err := Run(context.Background(), g, Options{}, prog)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if !strings.Contains(pe.Error(), "step program") {
		t.Fatalf("error %q does not mention step programs", pe.Error())
	}
}

// TestStepUnknownProgramType: Run must reject program values that are
// neither blocking functions nor StepPrograms.
func TestStepUnknownProgramType(t *testing.T) {
	g := graph.Path(2)
	if _, err := Run(context.Background(), g, Options{}, 42); err == nil {
		t.Fatal("Run accepted an int as a program")
	}
	e := NewEngine(Options{})
	defer e.Close()
	if _, err := e.Run(context.Background(), g, nil); err == nil {
		t.Fatal("Run accepted a nil program")
	}
	// The engine must remain usable after the rejection.
	if _, err := e.Run(context.Background(), g, &stepPingPong{k: 1}); err != nil {
		t.Fatalf("engine unusable after rejected program: %v", err)
	}
}

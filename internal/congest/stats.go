package congest

import (
	"fmt"
	"sync/atomic"

	"distmincut/internal/graph"
)

// Progress is a gauge a running simulation updates at every round
// boundary (see Options.Progress). All methods are safe to call from
// any goroutine while the run is in flight; values are monotone and
// settle at the run's final Stats when it ends.
type Progress struct {
	round     atomic.Int64
	delivered atomic.Int64
}

// Round returns the round number most recently completed.
func (p *Progress) Round() int { return int(p.round.Load()) }

// Delivered returns the cumulative messages delivered so far.
func (p *Progress) Delivered() int64 { return p.delivered.Load() }

// Mark is a named round timestamp recorded by a node program, used by
// the experiment harness and the span parser in package distmincut to
// attribute rounds, messages, and wall time to pipeline phases.
type Mark struct {
	Label string
	Round int
	Node  graph.NodeID
	// Delivered is the run's cumulative delivered-message count when
	// the mark was recorded; the delta between an end: and begin: mark
	// is the phase's message cost.
	Delivered int64
	// Nanos is wall time in nanoseconds from Run entry (engine setup
	// included) to the mark. Unlike the round and message fields it is
	// a clock reading, not part of the deterministic accounting.
	Nanos int64
}

// Stats summarizes one simulation run.
type Stats struct {
	// Rounds is the index of the last round in which a message was
	// delivered or a sleeping node was due — the CONGEST time
	// complexity of the run.
	Rounds int
	// Sent counts messages staged by node programs; Delivered counts
	// messages actually transmitted (equal unless the run aborted).
	Sent      int64
	Delivered int64
	// Wakeups counts node activations; the simulator's work is
	// proportional to this plus Delivered, independent of idle rounds.
	Wakeups int64
	// Leftover counts messages delivered but never consumed by a Recv.
	// Protocols in this repository are expected to drain their traffic;
	// tests assert Leftover == 0.
	Leftover int64
	// DirtyNodes counts the nodes that sent at least one message — the
	// size of the dirty set that bounds the warm engine's per-run
	// teardown and queue-reset walks.
	DirtyNodes int
	// Marks are the phase timestamps recorded via Node.Mark.
	Marks []Mark
	// SetupNanos is the wall time this run spent in per-run engine
	// setup (slab acquisition, queue carving, node initialization —
	// everything before the first node activation). It is a wall-clock
	// measurement, not part of the deterministic accounting above: a
	// warm reused engine reports near-zero here, a cold one the full
	// allocation cost. Benchmarks surface it as the setup-ns metric.
	SetupNanos int64
}

// MessageBits returns the total bits transmitted, charging each message
// its full fixed-format size (kind byte + tag + payload words).
func (s *Stats) MessageBits() int64 {
	const bitsPerMessage = 8 + 32 + 64*PayloadWords
	return s.Delivered * bitsPerMessage
}

// String renders a one-line summary.
func (s *Stats) String() string {
	return fmt.Sprintf("rounds=%d sent=%d delivered=%d wakeups=%d leftover=%d",
		s.Rounds, s.Sent, s.Delivered, s.Wakeups, s.Leftover)
}

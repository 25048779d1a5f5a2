package distmincut

import (
	"strings"

	"distmincut/internal/congest"
)

// Span is one named phase of a distributed computation, reconstructed
// from the begin:/end: marks the protocol's designated node records at
// phase boundaries (see congest.Mark). A span carries the phase's
// CONGEST round span, its delivered-message span, and its wall-clock
// span, and nests: the pipeline's top-level phases (bfs, pack, level:N,
// markside, ...) contain the per-tree spans (mst, respect) they drive,
// which in turn contain the MST parts. Sibling spans of one lane tile
// the run in order, so top-level spans sum (up to the inter-phase gaps,
// which are zero rounds) to the run's totals. A packing runs tree i+1's
// mst on a forked lane beside tree i's respect (see congest.Node.Fork),
// so inside pack the mst and respect spans overlap, and their sum
// exceeds pack.
type Span struct {
	// Name is the phase label ("bfs", "mst", "level:3", ...). The text
	// up to the first ':' is the phase group (see PhaseGroup).
	Name string
	// StartRound and EndRound delimit the phase in CONGEST rounds;
	// EndRound - StartRound is the phase's round cost.
	StartRound, EndRound int
	// StartMessages and EndMessages are the run's cumulative
	// delivered-message counts at the phase boundaries.
	StartMessages, EndMessages int64
	// StartNanos and EndNanos are wall nanoseconds from the engine
	// Run's entry to the phase boundaries (engine setup included), so
	// spans from one run anchor to the run's wall-clock start.
	StartNanos, EndNanos int64
	// Lane is the node lane that recorded the span: 0 for the program,
	// 1 for a function it forked.
	Lane int
	// Children are the phases nested inside this one, in order of
	// their start.
	Children []*Span
}

// Rounds is the phase's CONGEST round cost.
func (s *Span) Rounds() int { return s.EndRound - s.StartRound }

// Messages is the number of messages delivered during the phase.
func (s *Span) Messages() int64 { return s.EndMessages - s.StartMessages }

// Nanos is the phase's wall-clock cost in nanoseconds.
func (s *Span) Nanos() int64 { return s.EndNanos - s.StartNanos }

// PhaseGroup maps a span name to its aggregation group: the name up to
// the first ':' ("level:3" → "level", "mst:part1" → "mst", "bfs" →
// "bfs"). Per-phase counters aggregate by group so dynamic labels
// (sampling levels, MST parts) stay bounded-cardinality.
func PhaseGroup(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i]
	}
	return name
}

// Spans reconstructs the phase-span tree of one run from its marks.
// Marks are recorded in round order under the engine's mutex, and the
// pipeline's phase marks all come from one designated node, so one
// begin:/end: stack per lane recovers the nesting exactly. A forked
// lane's spans nest under the program lane's span that is open at the
// forked lane's first mark; a fork starts its function at once, so
// that is the span open at the fork. Closing a span closes what is
// open above it on its lane and every forked lane's spans nested under
// it, at the same boundary. Unmatched end marks are ignored;
// spans left open (an aborted run) are closed at the run's final
// round, message count, and last observed wall instant, so partial
// traces stay well-formed. Returns the top-level spans in order; stats
// may be nil (returns nil).
func Spans(stats *congest.Stats) []*Span {
	if stats == nil {
		return nil
	}
	var top []*Span
	// stacks holds each lane's open spans; a forked lane's spans nest
	// under stacks[0][under[lane]-1], or are top-level when that is 0.
	var stacks [][]*Span
	var under []int
	lastNanos := int64(0)
	closeAt := func(spans []*Span, m congest.Mark) {
		for _, s := range spans {
			s.EndRound = m.Round
			s.EndMessages = m.Delivered
			s.EndNanos = m.Nanos
		}
	}
	for _, m := range stats.Marks {
		if m.Nanos > lastNanos {
			lastNanos = m.Nanos
		}
		for len(stacks) <= m.Lane {
			stacks = append(stacks, nil)
			under = append(under, 0)
		}
		stack := stacks[m.Lane]
		switch {
		case strings.HasPrefix(m.Label, "begin:"):
			s := &Span{
				Name:          m.Label[len("begin:"):],
				StartRound:    m.Round,
				EndRound:      m.Round,
				StartMessages: m.Delivered,
				EndMessages:   m.Delivered,
				StartNanos:    m.Nanos,
				EndNanos:      m.Nanos,
				Lane:          m.Lane,
			}
			parent := stack
			if len(parent) == 0 {
				parent = stacks[0]
				under[m.Lane] = len(parent)
			}
			if len(parent) > 0 {
				p := parent[len(parent)-1]
				p.Children = append(p.Children, s)
			} else {
				top = append(top, s)
			}
			stacks[m.Lane] = append(stack, s)
		case strings.HasPrefix(m.Label, "end:"):
			name := m.Label[len("end:"):]
			// Find the matching open span; anything opened above it on
			// the same lane is implicitly closed at the same boundary.
			at := -1
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i].Name == name {
					at = i
					break
				}
			}
			if at < 0 {
				continue // unmatched end mark
			}
			closeAt(stack[at:], m)
			stacks[m.Lane] = stack[:at]
			if m.Lane > 0 {
				continue
			}
			for l := 1; l < len(stacks); l++ {
				if len(stacks[l]) > 0 && under[l] > at {
					closeAt(stacks[l], m)
					stacks[l] = nil
				}
			}
		}
	}
	// Close spans an abort left open at the run's final accounting.
	for _, stack := range stacks {
		for _, s := range stack {
			s.EndRound = stats.Rounds
			s.EndMessages = stats.Delivered
			s.EndNanos = lastNanos
		}
	}
	return top
}

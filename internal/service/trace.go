package service

import (
	"encoding/json"
	"time"

	"distmincut"
	"distmincut/internal/congest"
)

// traceEvent is one entry in a job's event timeline. Lifecycle events
// (queued, degraded, started, refining, done, ...) are instants; phase
// events (build, run:<tier>, and the reconstructed protocol phase
// spans) carry a duration; round events are the flight-recorder tail a
// deadline or budget abort leaves behind. The timeline is kept in
// emission order — a deadline trace deliberately ends with its round
// tail, after the terminal lifecycle event.
type traceEvent struct {
	name string
	cat  string // "lifecycle", "phase", or "round"
	at   time.Time
	dur  time.Duration // zero for instant events
	args map[string]any
	// span marks a protocol phase span. Its args (rounds, messages and
	// phase group) are built from these fields only when the trace
	// renders, so retained timelines hold no map per span.
	span             bool
	rounds, messages int64
}

// spanEvents flattens a phase-span tree into phase trace events
// anchored at the engine run's start time. Children become their own
// events; the Chrome trace viewer nests complete events on one thread
// by containment, so the tree renders as stacked phase bars.
func spanEvents(anchor time.Time, spans []*distmincut.Span, out []traceEvent) []traceEvent {
	for _, sp := range spans {
		out = append(out, traceEvent{
			name:     sp.Name,
			cat:      "phase",
			at:       anchor.Add(time.Duration(sp.StartNanos)),
			dur:      time.Duration(sp.Nanos()),
			span:     true,
			rounds:   int64(sp.Rounds()),
			messages: sp.Messages(),
		})
		out = spanEvents(anchor, sp.Children, out)
	}
	return out
}

// flightEvents converts a flight-recorder tail into round trace
// events anchored at the aborted run's start time: one instant per
// retained round, carrying that round's delivery accounting.
func flightEvents(anchor time.Time, tail []congest.RoundRecord) []traceEvent {
	out := make([]traceEvent, 0, len(tail))
	for _, r := range tail {
		out = append(out, traceEvent{
			name: "round",
			cat:  "round",
			at:   anchor.Add(time.Duration(r.Nanos)),
			args: map[string]any{
				"round":       r.Round,
				"delivered":   r.Delivered,
				"woken":       r.Woken,
				"dirty_nodes": r.DirtyNodes,
				"delivery_ns": r.DeliveryNanos,
			},
		})
	}
	return out
}

// addPhaseTotals folds the leaf spans of a run's phase tree into the
// service-wide per-phase counters, keyed by phase group so dynamic
// names (level:3, bracket:7) stay bounded-cardinality. Leaves only:
// a parent span's rounds include its children's, and the counters must
// sum a run at most once.
func addPhaseTotals(rounds, messages map[string]int64, spans []*distmincut.Span) {
	for _, sp := range spans {
		if len(sp.Children) == 0 {
			g := distmincut.PhaseGroup(sp.Name)
			rounds[g] += int64(sp.Rounds())
			messages[g] += sp.Messages()
			continue
		}
		addPhaseTotals(rounds, messages, sp.Children)
	}
}

// chromeEvent is one entry of the Chrome trace-event JSON array
// (chrome://tracing, Perfetto). Timestamps and durations are
// microseconds; ph "X" is a complete event, "i" an instant, "M"
// metadata.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace carries the top-level trace-event JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// Thread IDs of the rendered trace: lifecycle instants, phase spans,
// and flight-recorder rounds each get their own named track.
const (
	tidLifecycle = 1
	tidPhases    = 2
	tidRounds    = 3
)

// renderTrace encodes a job's timeline as Chrome trace-event JSON.
// Timestamps are microseconds relative to the job's creation, so the
// queue wait is visible as the gap before the started instant. Event
// order follows the timeline's emission order (Chrome sorts by ts
// itself); a deadline trace therefore ends with its flight-recorder
// round tail.
func renderTrace(id string, created time.Time, events []traceEvent) []byte {
	evs := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "mincutd"}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: tidLifecycle, Args: map[string]any{"name": "job"}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: tidPhases, Args: map[string]any{"name": "phases"}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: tidRounds, Args: map[string]any{"name": "rounds"}},
	}
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.name,
			Cat:  ev.cat,
			Ts:   float64(ev.at.Sub(created).Nanoseconds()) / 1e3,
			Pid:  1,
			Args: ev.args,
		}
		if ev.span {
			ce.Args = map[string]any{"rounds": ev.rounds, "messages": ev.messages, "group": distmincut.PhaseGroup(ev.name)}
		}
		switch ev.cat {
		case "phase":
			d := float64(ev.dur.Nanoseconds()) / 1e3
			ce.Ph, ce.Tid, ce.Dur = "X", tidPhases, &d
		case "round":
			ce.Ph, ce.Tid, ce.S = "i", tidRounds, "t"
		default:
			ce.Ph, ce.Tid, ce.S = "i", tidLifecycle, "t"
		}
		evs = append(evs, ce)
	}
	data, err := json.Marshal(chromeTrace{
		TraceEvents:     evs,
		DisplayTimeUnit: "ms",
		OtherData:       map[string]any{"job_id": id},
	})
	if err != nil { // unreachable: every args value is a plain scalar
		return []byte(`{"traceEvents":[]}`)
	}
	return data
}

// Trace renders the job's event timeline as Chrome trace-event JSON
// (load it in chrome://tracing or Perfetto). A finished job's trace is
// complete — every lifecycle transition, the per-tier run and protocol
// phase spans, and on a deadline or budget abort the flight-recorder
// tail of the last rounds before the kill. A still-running job yields
// the timeline so far. Unknown IDs report false.
func (s *Service) Trace(id string) ([]byte, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	events := make([]traceEvent, 0, len(j.trace)+8)
	events = append(events, j.trace...)
	if j.exec != nil {
		// In flight: the shared execution's events follow the job's own.
		events = append(events, j.exec.trace...)
	}
	created := j.created
	s.mu.Unlock()
	return renderTrace(id, created, events), true
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"distmincut"
	"distmincut/internal/congest"
)

// span is one interval the benchmark recorded around a call into a
// layer. Spans of one op share its op id; Chrome's viewer nests spans on
// one thread by containment.
type span struct {
	name  string
	cat   string
	op    int
	tid   int
	start time.Time
	dur   time.Duration
	args  map[string]any
}

// recorder keeps the traced pass's spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// addPhases records a call's protocol phase spans under op. Span times
// count from the engine's Run entry, which the call reaches after input
// validation, so anchoring them at the call's start places them up to
// that validation early.
func (r *recorder) addPhases(anchor time.Time, op, tid int, spans []*distmincut.Span) {
	for _, sp := range spans {
		r.add(span{
			name: sp.Name, cat: "phase", op: op, tid: tid,
			start: anchor.Add(time.Duration(sp.StartNanos)),
			dur:   time.Duration(sp.Nanos()),
			args:  map[string]any{"rounds": sp.Rounds(), "messages": sp.Messages()},
		})
		r.addPhases(anchor, op, tid, sp.Children)
	}
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write saves the spans as a Chrome trace (chrome://tracing, Perfetto),
// timed from process start and tagged with the run's identity.
func (r *recorder) write(path, tagLine string) error {
	evs := make([]chromeEvent, 0, len(r.spans))
	for _, s := range r.spans {
		args := map[string]any{"op": s.op}
		for k, v := range s.args {
			args[k] = v
		}
		evs = append(evs, chromeEvent{
			Name: s.name, Cat: s.cat, Ph: "X",
			Ts:  float64(s.start.Sub(processStart).Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.tid, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"tags": tagLine},
	})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// roundObserver sums the engine's per-round records over one op.
type roundObserver struct {
	rounds     int
	woken      int64
	deliveryNs int64
	shardMax   float64
	shardMean  float64
	lastNanos  int64 // wall time from Run entry to the last round barrier
	goroutines int   // most goroutines alive at a round barrier
}

func (o *roundObserver) ObserveRound(r congest.RoundRecord) {
	o.rounds++
	o.goroutines = max(o.goroutines, runtime.NumGoroutine())
	o.woken += int64(r.Woken)
	o.deliveryNs += r.DeliveryNanos
	o.lastNanos = r.Nanos
	if len(r.ShardNanos) == 0 {
		return
	}
	var max, sum int64
	for _, ns := range r.ShardNanos {
		sum += ns
		if ns > max {
			max = ns
		}
	}
	o.shardMax += float64(max)
	o.shardMean += float64(sum) / float64(len(r.ShardNanos))
}

// phaseModule names the package that owns each protocol phase group.
var phaseModule = map[string]string{
	"bfs": "proto", "mst": "mst", "respect": "respect",
	"pack": "packing", "certify": "packing", "markside": "packing", "evalcut": "packing",
	"bracket": "sampling", "mindeg": "sampling", "level": "sampling",
}

// phaseOrder lists the phase groups in report order, as module.group.
var phaseOrder = []string{
	"proto.bfs", "mst.mst", "respect.respect",
	"packing.pack", "packing.certify", "packing.markside", "packing.evalcut",
	"sampling.bracket", "sampling.mindeg", "sampling.level",
}

func phaseKey(name string) string {
	g := distmincut.PhaseGroup(name)
	if m, ok := phaseModule[g]; ok {
		return m + "." + g
	}
	return "other." + g
}

// phaseSum is one phase group's cost summed over a pass.
type phaseSum struct {
	rounds, messages, nanos int64
}

type phaseTotals map[string]*phaseSum

func (t phaseTotals) add(key string, rounds, messages, nanos int64) {
	s := t[key]
	if s == nil {
		s = &phaseSum{}
		t[key] = s
	}
	s.rounds += rounds
	s.messages += messages
	s.nanos += nanos
}

// addSpans sums a span tree by phase group, counting only the outermost
// span of each group so that nested parts (mst:part1 inside mst) are not
// counted twice.
func (t phaseTotals) addSpans(spans []*distmincut.Span, inside map[string]bool) {
	for _, sp := range spans {
		key := phaseKey(sp.Name)
		if inside[key] {
			t.addSpans(sp.Children, inside)
			continue
		}
		t.add(key, int64(sp.Rounds()), sp.Messages(), sp.Nanos())
		inside[key] = true
		t.addSpans(sp.Children, inside)
		inside[key] = false
	}
}

// metrics reports each phase group's rounds, messages and wall time per
// op, in phaseOrder.
func (t phaseTotals) metrics(ops int) []metric {
	var out []metric
	known := make(map[string]bool, len(phaseOrder))
	for _, k := range phaseOrder {
		known[k] = true
	}
	var extra []string
	for k := range t {
		if !known[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range append(append([]string(nil), phaseOrder...), extra...) {
		s := t[k]
		if s == nil {
			s = &phaseSum{}
		}
		out = append(out,
			metric{name: k + "_rounds", unit: "count", value: mean(float64(s.rounds), ops)},
			metric{name: k + "_messages", unit: "count", value: mean(float64(s.messages), ops)},
			metric{name: k + "_ms", unit: "ms", value: mean(float64(s.nanos)/1e6, ops)},
		)
	}
	return out
}

package service

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// chromeJSON mirrors the rendered trace shape for assertions.
type chromeJSON struct {
	TraceEvents []chromeJSONEvent `json:"traceEvents"`
	DisplayUnit string            `json:"displayTimeUnit"`
}

type chromeJSONEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// parseTrace fetches and decodes a job's trace.
func parseTrace(t *testing.T, s *Service, id string) chromeJSON {
	t.Helper()
	data, ok := s.Trace(id)
	if !ok {
		t.Fatalf("no trace for job %s", id)
	}
	var ct chromeJSON
	if err := json.Unmarshal(data, &ct); err != nil {
		t.Fatalf("trace for %s is not valid JSON: %v", id, err)
	}
	return ct
}

// eventByName returns the first non-metadata event with the name.
func eventByName(ct chromeJSON, name string) (chromeJSONEvent, bool) {
	for _, e := range ct.TraceEvents {
		if e.Ph != "M" && e.Name == name {
			return e, true
		}
	}
	return chromeJSONEvent{}, false
}

func tierReq(tier string, seed int64) JobRequest {
	return JobRequest{
		Graph: GraphSpec{Family: "planted", N1: 16, N2: 16, K: 2, InP: 0.5, Seed: seed},
		Tier:  tier,
	}
}

// TestTraceAllTiersCoverRunningTime: every serving tier's finished job
// yields a Chrome trace whose lifecycle events bracket phase spans
// covering at least 95% of the job's running wall time, with protocol
// phase spans nested inside their run:<tier> umbrella.
func TestTraceAllTiersCoverRunningTime(t *testing.T) {
	for _, tier := range []string{TierBracket, TierApprox, TierExact, TierRespect, TierTiered} {
		t.Run(tier, func(t *testing.T) {
			s := New(Options{PoolSize: 2})
			defer shutdown(t, s)
			v, err := s.Submit(tierReq(tier, 3))
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, s, v.ID, StateDone, 2*time.Minute)
			ct := parseTrace(t, s, v.ID)

			started, ok := eventByName(ct, "started")
			if !ok {
				t.Fatal("no started lifecycle event")
			}
			done, ok := eventByName(ct, "done")
			if !ok {
				t.Fatal("no done lifecycle event")
			}
			queued, ok := eventByName(ct, "queued")
			if !ok || queued.Ts > started.Ts {
				t.Fatalf("queued event missing or after started (ok=%v)", ok)
			}
			running := done.Ts - started.Ts
			if running <= 0 {
				t.Fatalf("non-positive running time %v", running)
			}

			// The build span plus the run:<tier> umbrellas are the
			// top-level phase coverage; they are disjoint by
			// construction (sequential on the worker).
			covered := 0.0
			runs := 0
			for _, e := range ct.TraceEvents {
				if e.Cat != "phase" {
					continue
				}
				if e.Name == "build" || strings.HasPrefix(e.Name, "run:") {
					covered += e.Dur
				}
				if strings.HasPrefix(e.Name, "run:") {
					runs++
				}
			}
			if runs == 0 {
				t.Fatal("no run:<tier> phase span")
			}
			if wantRuns := 1; tier == TierTiered {
				wantRuns = 2 // approx then exact
				if runs != wantRuns {
					t.Fatalf("tiered job has %d run spans, want 2", runs)
				}
			}
			if frac := covered / running; frac < 0.95 {
				t.Fatalf("phase spans cover %.1f%% of running time, want >= 95%%", 100*frac)
			}

			// Protocol phases (anything beyond build/run/setup) made it in.
			proto := 0
			for _, e := range ct.TraceEvents {
				if e.Cat == "phase" && e.Name != "build" && e.Name != "setup" && !strings.HasPrefix(e.Name, "run:") {
					proto++
				}
			}
			if proto == 0 {
				t.Fatal("no protocol phase spans in trace")
			}
		})
	}
}

// TestTracePhaseSpansNestInsideRuns: every protocol span lies inside
// one of the run:<tier> umbrellas.
func TestTracePhaseSpansNestInsideRuns(t *testing.T) {
	s := New(Options{PoolSize: 2})
	defer shutdown(t, s)
	v, err := s.Submit(tierReq(TierExact, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID, StateDone, 2*time.Minute)
	ct := parseTrace(t, s, v.ID)
	var runs []chromeJSONEvent
	for _, e := range ct.TraceEvents {
		if e.Cat == "phase" && strings.HasPrefix(e.Name, "run:") {
			runs = append(runs, e)
		}
	}
	if len(runs) == 0 {
		t.Fatal("no run umbrellas")
	}
	// The exact tier packs more than one tree, so some mst runs on the
	// forked lane, on its own thread; every other phase stays on the
	// phases thread.
	forked := 0
	for _, e := range ct.TraceEvents {
		if e.Cat != "phase" {
			continue
		}
		if e.Tid == tidForked {
			forked++
			if e.Name != "mst" && !strings.HasPrefix(e.Name, "mst:") {
				t.Errorf("forked-lane thread holds phase %s", e.Name)
			}
		} else if e.Tid != tidPhases {
			t.Errorf("phase %s on thread %d", e.Name, e.Tid)
		}
	}
	if forked == 0 {
		t.Error("no phase span on the forked-lane thread")
	}
	for _, p := range ct.TraceEvents {
		if p.Cat != "phase" || p.Name == "build" || strings.HasPrefix(p.Name, "run:") {
			continue
		}
		inside := false
		for _, r := range runs {
			// 5µs slack: the umbrella is stamped before the engine
			// clock that anchors the nested spans.
			if p.Ts >= r.Ts-5 && p.Ts+p.Dur <= r.Ts+r.Dur+5 {
				inside = true
				break
			}
		}
		if !inside {
			t.Errorf("phase span %s [%f, %f] outside every run umbrella", p.Name, p.Ts, p.Ts+p.Dur)
		}
	}
}

// TestTraceDeadlineEndsWithFlightTail: a job killed by its round
// budget renders a trace whose terminal deadline event is followed by
// the flight recorder's last rounds — and by nothing else.
func TestTraceDeadlineEndsWithFlightTail(t *testing.T) {
	s := New(Options{PoolSize: 2, MaxJobRounds: 60, FlightRounds: 16})
	defer shutdown(t, s)
	v, err := s.Submit(tierReq(TierExact, 7))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID, StateDeadline, 2*time.Minute)
	ct := parseTrace(t, s, v.ID)
	evs := ct.TraceEvents
	if len(evs) == 0 {
		t.Fatal("empty trace")
	}
	last := evs[len(evs)-1]
	if last.Cat != "round" {
		t.Fatalf("trace ends with %s/%s, want a round event", last.Cat, last.Name)
	}
	rounds := 0
	sawDeadline := false
	for _, e := range evs {
		if e.Cat == "round" {
			rounds++
			if !sawDeadline {
				t.Fatal("round tail appears before the terminal deadline event")
			}
		}
		if e.Name == "deadline" && e.Cat == "lifecycle" {
			sawDeadline = true
		}
	}
	if !sawDeadline {
		t.Fatal("no terminal deadline event")
	}
	if rounds == 0 || rounds > 16 {
		t.Fatalf("flight tail has %d rounds, want 1..16", rounds)
	}
	// Tail rounds are consecutive and end at the abort round.
	prev := -1.0
	for _, e := range evs {
		if e.Cat != "round" {
			continue
		}
		r, ok := e.Args["round"].(float64)
		if !ok {
			t.Fatalf("round event without numeric round arg: %v", e.Args)
		}
		if prev >= 0 && r != prev+1 {
			t.Fatalf("tail rounds not consecutive: %v after %v", r, prev)
		}
		prev = r
	}
}

// TestTraceDisabledFlightRecorder: negative FlightRounds turns the
// recorder off; a deadline trace then carries no round tail but stays
// well-formed.
func TestTraceDisabledFlightRecorder(t *testing.T) {
	s := New(Options{PoolSize: 2, MaxJobRounds: 60, FlightRounds: -1})
	defer shutdown(t, s)
	v, err := s.Submit(tierReq(TierExact, 7))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID, StateDeadline, 2*time.Minute)
	ct := parseTrace(t, s, v.ID)
	for _, e := range ct.TraceEvents {
		if e.Cat == "round" {
			t.Fatal("round events present with the recorder disabled")
		}
	}
	if _, ok := eventByName(ct, "deadline"); !ok {
		t.Fatal("no terminal deadline event")
	}
}

// TestTraceCacheHit: a cache-served job still gets a coherent (if
// short) timeline.
func TestTraceCacheHit(t *testing.T) {
	s := New(Options{PoolSize: 2})
	defer shutdown(t, s)
	v1, err := s.Submit(tierReq(TierApprox, 9))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v1.ID, StateDone, 2*time.Minute)
	v2, err := s.Submit(tierReq(TierApprox, 9))
	if err != nil {
		t.Fatal(err)
	}
	if !v2.CacheHit {
		t.Fatal("second submission was not a cache hit")
	}
	ct := parseTrace(t, s, v2.ID)
	done, ok := eventByName(ct, "done")
	if !ok {
		t.Fatal("cache-hit trace has no done event")
	}
	if hit, _ := done.Args["cache_hit"].(bool); !hit {
		t.Fatalf("done event args %v lack cache_hit", done.Args)
	}
}

// TestTraceCoalescedWaitersRenderSameTimeline: two jobs coalesced onto
// one execution render the same execution events after their own,
// shifted only by the gap between their creation times, ending with the
// terminal state.
func TestTraceCoalescedWaitersRenderSameTimeline(t *testing.T) {
	s := New(Options{PoolSize: 1})
	defer shutdown(t, s)
	a, err := s.Submit(tierReq(TierExact, 5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(tierReq(TierExact, 5))
	if err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", m.Coalesced)
	}
	waitState(t, s, a.ID, StateDone, 2*time.Minute)
	waitState(t, s, b.ID, StateDone, 2*time.Minute)

	// Each job's own events come first: queued, plus coalesced for b.
	own := func(id string, names ...string) []chromeJSONEvent {
		var evs []chromeJSONEvent
		for _, e := range parseTrace(t, s, id).TraceEvents {
			if e.Ph != "M" {
				evs = append(evs, e)
			}
		}
		for i, name := range names {
			if i >= len(evs) || evs[i].Name != name {
				t.Fatalf("job %s: event %d is not %q: %+v", id, i, name, evs)
			}
		}
		return evs[len(names):]
	}
	ea, eb := own(a.ID, "queued"), own(b.ID, "queued", "coalesced")
	if len(ea) != len(eb) {
		t.Fatalf("execution events: %d for %s, %d for %s", len(ea), a.ID, len(eb), b.ID)
	}
	var phases int
	for i := range ea {
		x, y := ea[i], eb[i]
		shift := (x.Ts - y.Ts) - (ea[0].Ts - eb[0].Ts)
		if x.Name != y.Name || x.Cat != y.Cat || x.Ph != y.Ph || x.Dur != y.Dur || x.Tid != y.Tid ||
			!reflect.DeepEqual(x.Args, y.Args) || math.Abs(shift) > 0.01 {
			t.Fatalf("execution event %d differs:\n%s: %+v\n%s: %+v", i, a.ID, x, b.ID, y)
		}
		if x.Ph == "X" {
			phases++
		}
	}
	if phases == 0 || ea[len(ea)-1].Name != string(StateDone) {
		t.Fatalf("execution events lack phase spans or do not end with done: %+v", ea)
	}
}

// lastEvent returns a trace's final non-metadata event.
func lastEvent(t *testing.T, s *Service, id string) chromeJSONEvent {
	t.Helper()
	evs := parseTrace(t, s, id).TraceEvents
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Ph != "M" {
			return evs[i]
		}
	}
	t.Fatalf("job %s: empty trace", id)
	return chromeJSONEvent{}
}

// TestTraceCanceledJobsEndInCanceled: a DELETE ends the job's trace in
// a canceled lifecycle event, whether the job ran alone or waited,
// coalesced, on a run another job keeps; that other job's trace still
// ends in done.
func TestTraceCanceledJobsEndInCanceled(t *testing.T) {
	s := New(Options{PoolSize: 1})
	defer shutdown(t, s)
	endsIn := func(id string, want State) {
		t.Helper()
		if e := lastEvent(t, s, id); e.Cat != "lifecycle" || e.Name != string(want) {
			t.Fatalf("job %s: trace ends with %s/%s, want lifecycle/%s", id, e.Cat, e.Name, want)
		}
	}

	lone, err := s.Submit(bigExactReq(61))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, lone.ID)
	s.Cancel(lone.ID)
	endsIn(lone.ID, StateCanceled)

	kept, err := s.Submit(bigExactReq(62))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, kept.ID)
	waiter, err := s.Submit(bigExactReq(62))
	if err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", m.Coalesced)
	}
	s.Cancel(waiter.ID)
	endsIn(waiter.ID, StateCanceled)
	if _, ok := eventByName(parseTrace(t, s, waiter.ID), "started"); !ok {
		t.Fatalf("coalesced job %s: trace lacks the execution events it waited through", waiter.ID)
	}
	waitState(t, s, kept.ID, StateDone, 2*time.Minute)
	endsIn(kept.ID, StateDone)
}

// TestTraceUnknownJob: unknown IDs report false.
func TestTraceUnknownJob(t *testing.T) {
	s := New(Options{PoolSize: 2})
	defer shutdown(t, s)
	if _, ok := s.Trace("nope"); ok {
		t.Fatal("trace for unknown job")
	}
}

// TestTraceHTTPEndpoint: the route serves the trace with the right
// content type and 404s unknown jobs; /healthz carries build identity.
func TestTraceHTTPEndpoint(t *testing.T) {
	s := New(Options{PoolSize: 2})
	defer shutdown(t, s)
	ts := httptest.NewServer(NewAPI(s).Handler())
	defer ts.Close()

	v, err := s.Submit(tierReq(TierBracket, 11))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID, StateDone, 2*time.Minute)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	if ctype := resp.Header.Get("Content-Type"); ctype != "application/json" {
		t.Fatalf("trace content type %q", ctype)
	}
	var ct chromeJSON
	if err := json.NewDecoder(resp.Body).Decode(&ct); err != nil {
		t.Fatal(err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("empty traceEvents over HTTP")
	}

	resp404, err := http.Get(ts.URL + "/v1/jobs/zzz/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-job trace status %d, want 404", resp404.StatusCode)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"status", "version", "commit", "go"} {
		if s, _ := health[k].(string); s == "" {
			t.Errorf("healthz missing %q: %v", k, health)
		}
	}
	if ready, ok := health["ready"].(bool); !ok || !ready {
		t.Errorf("healthz ready = %v, want true on an idle server", health["ready"])
	}
}

// TestMetricsCarryPhaseAndLatency: completed runs populate the phase
// counters and per-tier latency histograms, and the Prometheus
// rendering exposes them with well-formed histogram series.
func TestMetricsCarryPhaseAndLatency(t *testing.T) {
	s := New(Options{PoolSize: 2})
	defer shutdown(t, s)
	v, err := s.Submit(tierReq(TierExact, 13))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID, StateDone, 2*time.Minute)

	m := s.Metrics()
	if m.PhaseRounds["mst"] == 0 || m.PhaseRounds["respect"] == 0 {
		t.Fatalf("phase rounds missing mst/respect: %v", m.PhaseRounds)
	}
	if m.PhaseMessages["mst"] == 0 {
		t.Fatalf("phase messages missing mst: %v", m.PhaseMessages)
	}
	h, ok := m.TierLatency[TierExact]
	if !ok || h.Count == 0 {
		t.Fatalf("exact-tier latency histogram empty: %+v", h)
	}
	if len(h.Counts) != len(h.Bounds)+1 {
		t.Fatalf("histogram has %d counts for %d bounds", len(h.Counts), len(h.Bounds))
	}
	var total int64
	for _, c := range h.Counts {
		total += c
	}
	if total != h.Count {
		t.Fatalf("bucket counts sum to %d, count %d", total, h.Count)
	}
	if m.Build.GoVersion == "" {
		t.Fatal("metrics build info empty")
	}

	var b strings.Builder
	if err := WritePrometheus(&b, m); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE mincutd_job_duration_seconds histogram",
		`mincutd_job_duration_seconds_bucket{tier="exact",le="+Inf"}`,
		`mincutd_job_duration_seconds_count{tier="exact"}`,
		`mincutd_job_duration_seconds_sum{tier="exact"}`,
		`mincutd_phase_rounds_total{phase="mst"}`,
		`mincutd_phase_messages_total{phase="respect"}`,
		"# TYPE mincutd_build_info gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distmincut/internal/baseline"
	"distmincut/internal/graph"
	"distmincut/internal/harness"
	"distmincut/internal/service"
)

const (
	smClients   = 2                // closed-loop clients: no more than the two cores the mix was tuned on
	smBlock     = 10               // stream ops per block
	smFresh     = 3                // fresh keys per block: a 70/30 hit/miss mix
	smPollEvery = time.Millisecond // poll interval: finer polling steals CPU from the two workers
)

// serviceMix drives an in-process service with default options from
// smClients closed-loop clients. The hot set is the quick service
// corpus, prefilled during set-up; fresh keys are corpus specs with a
// new protocol seed, so they miss the cache.
type serviceMix struct {
	cfg      config
	svc      *service.Service
	corpus   []service.JobRequest
	entries  []smEntry
	hotOrder []int // seeded permutation of the corpus, the order hits cycle in
	next     atomic.Int64
	prefix   prefix
	done     atomic.Int64 // finished ops among the first cfg.smPrefix
}

// smEntry is one corpus spec with its oracle and prefilled answer.
type smEntry struct {
	g       *graph.Graph
	lambda  int64
	epsilon float64
	bytes   []byte // the prefilled result, which every hit must return
}

func newServiceMix(cfg config) *serviceMix { return &serviceMix{cfg: cfg} }

func (w *serviceMix) setup() error {
	w.corpus = harness.ServiceCorpus(true)
	w.hotOrder = rand.New(rand.NewSource(w.cfg.seed)).Perm(len(w.corpus))
	w.svc = service.New(service.Options{})
	ids := make([]string, len(w.corpus))
	for i, req := range w.corpus {
		canon, _, err := service.CanonicalRequest(req, service.Limits{})
		if err != nil {
			return err
		}
		g, err := service.Build(canon.Graph)
		if err != nil {
			return err
		}
		lambda, _, err := baseline.StoerWagner(g)
		if err != nil {
			return err
		}
		w.entries = append(w.entries, smEntry{g: g, lambda: lambda, epsilon: canon.Epsilon})
		v, err := w.svc.Submit(req)
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		ids[i] = v.ID
	}
	for i, id := range ids {
		v, ok := w.svc.Job(id)
		for ok && !terminal(v.State) {
			time.Sleep(smPollEvery)
			v, ok = w.svc.Job(id)
		}
		if !ok || v.State != service.StateDone {
			return fmt.Errorf("prefill job %d ended %s: %s", i, v.State, v.Error)
		}
		e := &w.entries[i]
		e.bytes = append([]byte(nil), v.Result...)
		if _, _, err := e.checkCounted(e.bytes, nil); err != nil {
			return fmt.Errorf("prefill job %d: %w", i, err)
		}
	}
	return nil
}

func (w *serviceMix) close() {
	if w.svc != nil {
		w.svc.BeginDrain()
		_ = w.svc.Shutdown(context.Background()) // every client has returned, so nothing is in flight
	}
}

func terminal(s service.State) bool {
	switch s {
	case service.StateDone, service.StateFailed, service.StateCanceled, service.StateDeadline:
		return true
	}
	return false
}

// request returns stream op i. In every block of smBlock ops a seeded
// choice of smFresh positions carries fresh keys; the others repeat the
// hot set. Both cycle through the corpus, fresh keys in corpus order and
// hot keys in a seeded order, so that every run has the same mix of
// specs and only the order and the fresh protocol seeds vary.
func (w *serviceMix) request(i int) (req service.JobRequest, entry int, fresh bool) {
	block, pos := i/smBlock, i%smBlock
	rank := rand.New(rand.NewSource(w.cfg.seed*1_000_003 + int64(block))).Perm(smBlock)[pos]
	if rank < smFresh {
		f := block*smFresh + rank
		entry = f % len(w.corpus)
		req = w.corpus[entry]
		// Seeds 0 and 1 are the hot set's; fresh seeds start above them.
		req.Seed = 2 + (w.cfg.seed&0xffffffff)<<24 + int64(f)
		return req, entry, true
	}
	h := block*(smBlock-smFresh) + rank - smFresh
	entry = w.hotOrder[h%len(w.hotOrder)]
	return w.corpus[entry], entry, false
}

// smOp is one job as its client saw it.
type smOp struct {
	index, entry int
	fresh        bool
	rec          opRecord
	submit       time.Duration
	view         service.JobView
	seen         time.Time
	err          error
	svcTrace     *jobTrace
	goroutines   int // most goroutines alive at a poll
}

// do runs stream op i: submit, then poll until the job is terminal. A
// failed op's latency runs until the failure was seen.
func (w *serviceMix) do(i int) (op smOp) {
	req, entry, fresh := w.request(i)
	op = smOp{index: i, entry: entry, fresh: fresh}
	t0 := time.Now()
	defer func() {
		op.seen = time.Now()
		op.rec.latency = op.seen.Sub(t0)
	}()
	v, err := w.svc.Submit(req)
	op.submit = time.Since(t0)
	if err != nil {
		op.err = err
		return op
	}
	answered := func() bool { return v.Result != nil || v.Approx != nil }
	if answered() {
		op.rec.first = op.submit
	}
	for !terminal(v.State) {
		time.Sleep(smPollEvery)
		op.goroutines = max(op.goroutines, runtime.NumGoroutine())
		var ok bool
		if v, ok = w.svc.Job(v.ID); !ok {
			op.err = fmt.Errorf("job vanished while polled")
			return op
		}
		if op.rec.first == 0 && answered() {
			op.rec.first = time.Since(t0)
		}
	}
	op.rec.hit = v.CacheHit
	op.view = v
	if v.State != service.StateDone {
		op.err = fmt.Errorf("job ended %s: %s", v.State, v.Error)
	}
	return op
}

// pass runs smClients closed-loop clients until d has passed and the
// first cfg.smPrefix stream ops are done, then checks every answer.
func (w *serviceMix) pass(d time.Duration, rec *recorder) (*passResult, error) {
	traced := rec != nil
	start := time.Now()
	perClient := make([][]smOp, smClients)
	var wg sync.WaitGroup
	for c := 0; c < smClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(w.next.Add(1) - 1)
				if time.Since(start) >= d && i >= w.cfg.smPrefix {
					return
				}
				op := w.do(i)
				if i < w.cfg.smPrefix && w.done.Add(1) == int64(w.cfg.smPrefix) {
					w.prefix.peakRSSMB = peakRSSMB()
				}
				if traced && op.err == nil {
					w.record(rec, c, &op)
				}
				perClient[c] = append(perClient[c], op)
			}
		}(c)
	}
	wg.Wait()
	res := &passResult{wall: time.Since(start)}

	var submit, queue, build, runT, finish, lag samples
	var setupNs int64
	phases := phaseTotals{}
	for _, ops := range perClient {
		for k := range ops {
			op := &ops[k]
			res.ops = append(res.ops, op.rec)
			rounds, messages, err := w.check(op)
			if err != nil {
				res.failed++
				if len(res.problems) < 5 {
					res.problems = append(res.problems, fmt.Sprintf("op %d: %v", op.index, err))
				}
			} else if op.index < w.cfg.smPrefix {
				w.prefix.add(rounds, messages, 0, op.rec.hit)
			}
			if !traced || op.err != nil {
				continue
			}
			submit = append(submit, op.submit.Seconds())
			res.goroutinesPeak = max(res.goroutinesPeak, op.goroutines)
			setupNs += op.view.SetupNs
			res.accounted += op.submit
			if t := op.svcTrace; t != nil {
				queue = append(queue, t.queueWait.Seconds())
				build = append(build, t.build.Seconds())
				runT = append(runT, t.run.Seconds())
				finish = append(finish, t.finish.Seconds())
				lag = append(lag, t.pollLag.Seconds())
				res.accounted += t.queueWait + t.build + t.run + t.finish + t.pollLag
				for key, s := range t.phases {
					phases.add(key, s.rounds, s.messages, s.nanos)
				}
			}
		}
	}
	res.prefix = w.prefix
	if !traced {
		return res, nil
	}
	ops := len(res.ops)
	res.layer = []metric{
		{name: "congest.setup_ms_per_op", unit: "ms", value: mean(float64(setupNs)/1e6, ops)},
	}
	res.layer = append(res.layer, phases.metrics(ops)...)
	res.layer = append(res.layer,
		timing("service.submit_us_p50", submit, 1e6, "us"),
		metric{name: "service.hit_ratio", unit: "ratio", value: mean(float64(res.prefix.hits), res.prefix.ops),
			note: fmt.Sprintf("over the first %d ops", res.prefix.ops)},
		timing("service.queue_wait_ms_p50", queue, 1e3, "ms"),
		timing("service.build_ms_p50", build, 1e3, "ms"),
		timing("service.run_ms_p50", runT, 1e3, "ms"),
		timing("service.finish_ms_p50", finish, 1e3, "ms"),
		timing("service.poll_lag_ms_p50", lag, 1e3, "ms"),
	)
	return res, nil
}

// record saves a traced op's spans: the op and its submit and, for a
// miss, the wait and the service-side timeline read from Service.Trace.
// A trace that is gone or unreadable leaves the op out of the service
// split; the op's time then shows as unaccounted.
func (w *serviceMix) record(rec *recorder, client int, op *smOp) {
	t0 := op.seen.Add(-op.rec.latency)
	tid := client + 1
	rec.add(span{name: "op", cat: "op", op: op.index, tid: tid, start: t0, dur: op.rec.latency,
		args: map[string]any{"cache_hit": op.rec.hit, "fresh": op.fresh}})
	rec.add(span{name: "submit", cat: "service", op: op.index, tid: tid, start: t0, dur: op.submit})
	if op.rec.hit {
		return
	}
	rec.add(span{name: "wait", cat: "service", op: op.index, tid: tid, start: t0.Add(op.submit), dur: op.rec.latency - op.submit})
	data, ok := w.svc.Trace(op.view.ID)
	if !ok {
		return
	}
	jt, err := parseJobTrace(data, op.view.CreatedAt, op.seen)
	if err != nil {
		return
	}
	op.svcTrace = jt
	for _, ev := range jt.events {
		ev.op, ev.tid = op.index, 100+tid
		rec.add(ev)
	}
}

// jobTrace is a finished job's service-side split, read from
// Service.Trace.
type jobTrace struct {
	queueWait, build, run, finish, pollLag time.Duration
	phases                                 phaseTotals
	events                                 []span
}

type chromeIn struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func parseJobTrace(data []byte, created, seen time.Time) (*jobTrace, error) {
	var in chromeIn
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	us := func(v float64) time.Duration { return time.Duration(v * 1e3) }
	t := &jobTrace{phases: phaseTotals{}}
	var runEnd, done time.Duration
	type phaseEv struct {
		key        string
		start, end time.Duration
		rounds     int64
		messages   int64
	}
	var protocol []phaseEv
	for _, ev := range in.TraceEvents {
		at := us(ev.Ts)
		switch {
		case ev.Name == "started":
			t.queueWait = at
		case ev.Name == "done":
			done = at
		case ev.Cat == "phase" && ev.Dur != nil:
			d := us(*ev.Dur)
			t.events = append(t.events, span{name: ev.Name, cat: "job", start: created.Add(at), dur: d})
			switch {
			case ev.Name == "build":
				t.build += d
			case strings.HasPrefix(ev.Name, "run:"):
				t.run += d
				if at+d > runEnd {
					runEnd = at + d
				}
			case ev.Args["group"] != nil:
				r, _ := ev.Args["rounds"].(float64)
				m, _ := ev.Args["messages"].(float64)
				protocol = append(protocol, phaseEv{key: phaseKey(ev.Name), start: at, end: at + d, rounds: int64(r), messages: int64(m)})
			}
		}
	}
	// Count only the outermost event of each phase group, as addSpans
	// does for span trees. The trace lists a span before the spans it
	// contains, so a part follows the same-group event enclosing it.
	for i, p := range protocol {
		nested := false
		for _, q := range protocol[:i] {
			if q.key == p.key && q.start <= p.start && p.end <= q.end {
				nested = true
				break
			}
		}
		if !nested {
			t.phases.add(p.key, p.rounds, p.messages, int64(p.end-p.start))
		}
	}
	t.finish = done - runEnd
	t.pollLag = seen.Sub(created.Add(done))
	return t, nil
}

// serviceResult is the part of a canonical result the oracle reads.
type serviceResult struct {
	Tier     string `json:"tier"`
	N        int    `json:"n"`
	Value    int64  `json:"value"`
	Lo       int64  `json:"lo"`
	Hi       int64  `json:"hi"`
	Rounds   int64  `json:"rounds"`
	Messages int64  `json:"messages"`
	Side     string `json:"side"`
}

// check verifies one op's answer and returns its protocol rounds and
// messages (zero for a cache hit, which runs no protocol).
func (w *serviceMix) check(op *smOp) (rounds, messages int64, err error) {
	if op.err != nil {
		return 0, 0, op.err
	}
	e := &w.entries[op.entry]
	if !op.fresh {
		if !bytes.Equal(op.view.Result, e.bytes) {
			return 0, 0, fmt.Errorf("hot entry %d returned bytes that differ from its prefill", op.entry)
		}
		if op.rec.hit {
			return 0, 0, nil
		}
	}
	if op.rec.hit {
		return 0, 0, fmt.Errorf("fresh key answered from the cache")
	}
	return e.checkCounted(op.view.Result, op.view.Approx)
}

// checkCounted checks a result (and a tiered job's approximate answer)
// against λ and returns the protocol rounds and messages both cost.
func (e *smEntry) checkCounted(result, approx []byte) (rounds, messages int64, err error) {
	var r serviceResult
	if err := json.Unmarshal(result, &r); err != nil {
		return 0, 0, fmt.Errorf("decode result: %w", err)
	}
	if err := e.checkOne(r); err != nil {
		return 0, 0, err
	}
	rounds, messages = r.Rounds, r.Messages
	if approx != nil {
		var a serviceResult
		if err := json.Unmarshal(approx, &a); err != nil {
			return 0, 0, fmt.Errorf("decode approx: %w", err)
		}
		if err := e.checkOne(a); err != nil {
			return 0, 0, fmt.Errorf("approx phase: %w", err)
		}
		rounds += a.Rounds
		messages += a.Messages
	}
	return rounds, messages, nil
}

func (e *smEntry) checkOne(r serviceResult) error {
	side, err := decodeSide(r.Side, e.g.N())
	if err != nil {
		return err
	}
	if err := checkSide(e.g, side, r.Value); err != nil {
		return err
	}
	l := e.lambda
	switch r.Tier {
	case service.TierExact:
		if r.Value != l {
			return fmt.Errorf("exact %d, want λ = %d", r.Value, l)
		}
	case service.TierApprox:
		if r.Value < l || float64(r.Value) > (1+e.epsilon)*float64(l) {
			return fmt.Errorf("approx %d outside [λ, (1+%g)λ] for λ = %d", r.Value, e.epsilon, l)
		}
	case service.TierRespect:
		if r.Value < l {
			return fmt.Errorf("respect %d below λ = %d", r.Value, l)
		}
	case service.TierBracket:
		if r.Lo > l || r.Hi < l {
			return fmt.Errorf("bracket [%d, %d] misses λ = %d", r.Lo, r.Hi, l)
		}
	default:
		return fmt.Errorf("unexpected result tier %q", r.Tier)
	}
	return nil
}

// decodeSide unpacks the service's base64 side bitset.
func decodeSide(s string, n int) ([]bool, error) {
	bits, err := base64.StdEncoding.DecodeString(s)
	if err != nil || len(bits) != (n+7)/8 {
		return nil, fmt.Errorf("bad side bitset (%d bytes for n = %d): %v", len(bits), n, err)
	}
	side := make([]bool, n)
	for i := range side {
		side[i] = bits[i/8]&(1<<(i%8)) != 0
	}
	return side, nil
}

// Command loadgen drives mincutd with a closed-loop workload and
// reports latency and throughput. Each of -conc workers submits a job
// from the canned request corpus (the experiment harness families),
// polls it to completion, records the end-to-end latency, and
// immediately submits the next — so offered load adapts to service
// capacity, the standard closed-loop model.
//
// With -rate R the generator switches to open loop: requests arrive on
// a fixed schedule of R per second regardless of how fast the service
// answers, which is what production traffic does. Latency is measured
// from each request's scheduled arrival time (not its actual launch),
// so queueing delay under overload — including coordinated-omission
// slip when the generator itself falls behind — lands in the reported
// p50/p95/p99 instead of being silently forgiven. -conc is ignored in
// open-loop mode; every in-flight request holds its own goroutine.
//
// The generator is failure-aware: a 503 (queue full) is retried with
// jittered exponential backoff honoring the server's Retry-After hint,
// and when -max-retries is exhausted the request counts as *shed* —
// load the server deliberately refused — not as a failure. A 429
// (admission rejection) sheds immediately: the server has judged the
// request class too expensive, so retrying the same spec cannot help.
// Jobs that end in the deadline state count separately, as do jobs the
// server degraded to a cheaper tier (degraded_from set).
//
// Transport faults are retried, not failed: a connection refused or
// reset on submit (a replica restarting, a gateway failing over) backs
// off exactly like a 503, a failed or 5xx poll backs off and re-polls,
// and a job that vanishes outright (404, or polls that never stop
// failing) is resubmitted from scratch — the backend is deterministic
// and content-addressed, so a resubmission can only cache-hit or
// recompute the identical bytes. Each recovery class is counted
// separately in the report. Only exhausted retries and failed/canceled
// jobs are failures; the exit code is non-zero only when something
// failed or nothing completed.
//
// With no -addr, loadgen self-hosts: it starts an in-process service
// behind a real HTTP listener and drives that, which is what `make
// bench-service` uses to produce BENCH_service.json without
// coordinating background processes.
//
// With -bench, stdout carries `go test -bench`-format lines that
// cmd/benchjson converts to JSON:
//
//	loadgen -conc 8 -requests 128 -bench | benchjson > BENCH_service.json
//
// Two rows are emitted per run: the completion-latency row
// (BenchmarkServiceLoadgen / BenchmarkServiceLoadgenOpen) and a
// first-answer row (BenchmarkServiceFirstAnswer[Open]) measuring time
// to any usable result — for tiered jobs that is the approximate
// answer published in the refining state, ahead of exact
// certification.
//
// The human-readable report always goes to stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distmincut/internal/harness"
	"distmincut/internal/service"
)

func main() {
	os.Exit(run())
}

type options struct {
	addr       string
	conc       int
	requests   int
	corpus     string
	rate       float64
	poll       time.Duration
	timeout    time.Duration
	bench      bool
	pool       int
	queue      int
	deadlineMS int64
	unique     bool
	maxRetries int
}

func run() int {
	var o options
	flag.StringVar(&o.addr, "addr", "", "mincutd base URL (empty = self-host an in-process service)")
	flag.IntVar(&o.conc, "conc", 8, "concurrent closed-loop clients")
	flag.IntVar(&o.requests, "requests", 64, "total requests to issue")
	flag.StringVar(&o.corpus, "corpus", "quick", "request mix: quick | full | overload")
	flag.Float64Var(&o.rate, "rate", 0, "open-loop arrival rate in requests/sec (0 = closed loop)")
	flag.DurationVar(&o.poll, "poll", 2*time.Millisecond, "job poll interval")
	flag.DurationVar(&o.timeout, "timeout", 5*time.Minute, "per-job completion timeout")
	flag.BoolVar(&o.bench, "bench", false, "emit go-bench-format lines on stdout for benchjson")
	flag.IntVar(&o.pool, "pool", 0, "self-hosted service pool size (0 = GOMAXPROCS)")
	flag.IntVar(&o.queue, "queue", 256, "self-hosted service queue depth")
	flag.Int64Var(&o.deadlineMS, "deadline-ms", 0, "per-job deadline_ms attached to every request (0 = none)")
	flag.BoolVar(&o.unique, "unique", false, "perturb each request's protocol seed so no submission is a cache hit")
	flag.IntVar(&o.maxRetries, "max-retries", 10, "503 retries before counting a request as shed")
	version := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()

	if *version {
		b := service.ReadBuild()
		fmt.Printf("loadgen %s commit %s %s\n", b.Version, b.Commit, b.GoVersion)
		return 0
	}

	var corpus []service.JobRequest
	switch o.corpus {
	case "quick":
		corpus = harness.ServiceCorpus(true)
	case "full":
		corpus = harness.ServiceCorpus(false)
	case "overload":
		corpus = harness.OverloadCorpus()
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown corpus %q\n", o.corpus)
		return 2
	}

	base := o.addr
	if base == "" {
		svc := service.New(service.Options{PoolSize: o.pool, QueueDepth: o.queue})
		ts := httptest.NewServer(service.NewAPI(svc).Handler())
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			_ = svc.Shutdown(ctx)
		}()
		base = ts.URL
		fmt.Fprintf(os.Stderr, "loadgen: self-hosting service at %s (pool %d)\n", base, o.pool)
	}
	base = strings.TrimRight(base, "/")

	var res *outcome
	if o.rate > 0 {
		res = driveOpen(base, corpus, o)
	} else {
		res = drive(base, corpus, o)
	}
	report(os.Stderr, res, o)
	if o.bench {
		emitBench(os.Stdout, res, o)
	}
	if res.failed > 0 || res.completed == 0 {
		return 1
	}
	return 0
}

// request builds the i-th request from the corpus, applying the
// generator-level spec knobs: the per-job deadline and, with -unique,
// a per-request protocol seed perturbation so every submission misses
// the content-addressed cache and forces a real protocol run.
func request(corpus []service.JobRequest, i int, o options) service.JobRequest {
	req := corpus[i%len(corpus)]
	req.DeadlineMS = o.deadlineMS
	if o.unique {
		req.Seed += int64(i)*1_000_003 + 1
	}
	return req
}

type outcome struct {
	latencies []time.Duration // sorted ascending by drive
	mean      time.Duration
	// firsts are first-answer latencies: for a tiered job, the time to
	// the published approximate payload (state refining); for every
	// other tier, identical to the completion latency. Sorted ascending.
	firsts    []time.Duration
	meanFirst time.Duration
	completed int
	failed    int
	shed      int
	deadlined int
	degraded  int
	hits      int64
	// Transport-fault recovery counts: submit connection retries, poll
	// retries, and full resubmissions of jobs lost to a replica failure.
	connRetries int64
	pollRetries int64
	resubmits   int64
	wall        time.Duration
	metrics     service.Metrics
}

// transportRetries tallies client-side fault recovery across all
// worker goroutines; gather folds the totals into the outcome.
var transportRetries struct {
	submit    atomic.Int64
	poll      atomic.Int64
	resubmits atomic.Int64
}

// reqResult is one request's measurements: its status (done, shed,
// deadline, or failed), completion latency, the first-answer latency
// (when the job first had any result payload — a tiered job's
// published approximation or any tier's final result), whether the
// submission was a cache hit, and whether the server degraded it to a
// cheaper tier.
type reqResult struct {
	status   string // "done" | "shed" | "deadline" | "failed"
	total    time.Duration
	first    time.Duration
	hit      bool
	degraded bool
}

// drive runs the closed loop and gathers per-request latencies.
func drive(base string, corpus []service.JobRequest, o options) *outcome {
	client := &http.Client{Timeout: time.Minute}
	var next atomic.Int64
	results := make([]reqResult, o.requests)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < o.conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= o.requests {
					return
				}
				results[i] = oneRequest(client, base, request(corpus, i, o), i, o)
			}
		}()
	}
	wg.Wait()
	return gather(base, client, results, time.Since(start))
}

// driveOpen runs the open-loop generator: request i is due at
// start + i/rate, launched on its own goroutine, and its latency runs
// from that due time to completion — queue wait and generator slip
// included. Offered load never adapts to service speed, so sustained
// overload shows up as unbounded tail growth instead of the closed
// loop's self-throttling.
func driveOpen(base string, corpus []service.JobRequest, o options) *outcome {
	client := &http.Client{Timeout: time.Minute}
	interval := time.Duration(float64(time.Second) / o.rate)
	results := make([]reqResult, o.requests)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < o.requests; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			r := oneRequest(client, base, request(corpus, i, o), i, o)
			// Re-anchor latencies to the scheduled arrival: completion
			// from the due time, first answer shifted by the same slip.
			slip := time.Since(due) - r.total
			r.total += slip
			r.first += slip
			results[i] = r
		}(i, due)
	}
	wg.Wait()
	return gather(base, client, results, time.Since(start))
}

// gather folds per-request records into the report outcome (shared by
// the closed- and open-loop drivers). Latency distributions cover only
// completed requests; shed and deadlined requests are counted, not
// timed — their latencies measure the policy, not the service.
func gather(base string, client *http.Client, results []reqResult, wall time.Duration) *outcome {
	res := &outcome{wall: wall}
	for _, r := range results {
		if r.degraded {
			res.degraded++
		}
		switch r.status {
		case "done":
			res.completed++
			res.latencies = append(res.latencies, r.total)
			res.firsts = append(res.firsts, r.first)
			if r.hit {
				res.hits++
			}
		case "shed":
			res.shed++
		case "deadline":
			res.deadlined++
		default:
			res.failed++
		}
	}
	sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
	sort.Slice(res.firsts, func(i, j int) bool { return res.firsts[i] < res.firsts[j] })
	var sum, sumFirst time.Duration
	for _, l := range res.latencies {
		sum += l
	}
	for _, l := range res.firsts {
		sumFirst += l
	}
	if res.completed > 0 {
		res.mean = sum / time.Duration(res.completed)
		res.meanFirst = sumFirst / time.Duration(res.completed)
	}
	res.connRetries = transportRetries.submit.Load()
	res.pollRetries = transportRetries.poll.Load()
	res.resubmits = transportRetries.resubmits.Load()
	if resp, err := client.Get(base + "/metrics?format=json"); err == nil {
		_ = json.NewDecoder(resp.Body).Decode(&res.metrics)
		resp.Body.Close()
	}
	return res
}

// backoff computes the wait before retry attempt (1-based) of a shed
// submission: exponential from 5ms doubling per attempt, capped at
// 500ms, with ±50% jitter to break retry synchronization across
// workers. A Retry-After hint from the server raises the floor — the
// server knows its drain rate better than the client does.
func backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := 5 * time.Millisecond << uint(min(attempt, 7))
	if d > 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	if d < retryAfter {
		d = retryAfter
	}
	return d
}

// retryAfterHint parses a 503/429 response's Retry-After header
// (delta-seconds form only); zero when absent or malformed.
func retryAfterHint(resp *http.Response) time.Duration {
	s := resp.Header.Get("Retry-After")
	if s == "" {
		return 0
	}
	secs, err := strconv.Atoi(s)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// submitJob posts one request until it is accepted, shed, or failed,
// returning the accepted view and "" on success, or ("", outcome) when
// the request is finished without a job. Queue-full 503s and transport
// faults (connection refused/reset while a replica restarts, a
// gateway's 502 while every candidate is mid-failover) both back off
// with the same jittered policy and share the -max-retries budget;
// transport retries are tallied separately for the report.
func submitJob(client *http.Client, base string, body []byte, idx int, start time.Time, o options) (service.JobView, string) {
	var view service.JobView
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			if attempt >= o.maxRetries || time.Since(start) > o.timeout {
				fmt.Fprintf(os.Stderr, "loadgen: request %d: %v\n", idx, err)
				return view, "failed"
			}
			transportRetries.submit.Add(1)
			time.Sleep(backoff(attempt+1, 0))
			continue
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusServiceUnavailable:
			if attempt >= o.maxRetries || time.Since(start) > o.timeout {
				return view, "shed"
			}
			time.Sleep(backoff(attempt+1, retryAfterHint(resp)))
			continue
		case http.StatusTooManyRequests:
			return view, "shed"
		case http.StatusBadGateway:
			if attempt >= o.maxRetries || time.Since(start) > o.timeout {
				fmt.Fprintf(os.Stderr, "loadgen: request %d: submit status %d: %s\n", idx, resp.StatusCode, data)
				return view, "failed"
			}
			transportRetries.submit.Add(1)
			time.Sleep(backoff(attempt+1, retryAfterHint(resp)))
			continue
		case http.StatusAccepted, http.StatusOK:
		default:
			fmt.Fprintf(os.Stderr, "loadgen: request %d: submit status %d: %s\n", idx, resp.StatusCode, data)
			return view, "failed"
		}
		if err := json.Unmarshal(data, &view); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: request %d: %v\n", idx, err)
			return view, "failed"
		}
		return view, ""
	}
}

// oneRequest submits one job and waits for a terminal state. Queue-full
// 503s back off and retry up to -max-retries before counting as shed;
// admission 429s shed immediately. Deadline-state jobs and server-side
// tier degradation are recorded as their own outcomes, not failures.
// Failed or erroring polls back off and re-poll; a job that vanishes
// (404) or whose polls never stop failing is resubmitted from scratch —
// deterministic content-addressed serving makes the resubmission
// either a cache hit or a byte-identical recomputation.
func oneRequest(client *http.Client, base string, req service.JobRequest, idx int, o options) reqResult {
	var r reqResult
	r.status = "failed"
	body, err := json.Marshal(req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: request %d: %v\n", idx, err)
		return r
	}
	start := time.Now()
	deadline := start.Add(o.timeout)
resubmit:
	for submits := 0; ; submits++ {
		view, outcome := submitJob(client, base, body, idx, start, o)
		if outcome != "" {
			r.status = outcome
			return r
		}
		if submits == 0 {
			r.hit = view.CacheHit
		}
		pollFails := 0
		for view.State != service.StateDone {
			if r.first == 0 && len(view.Approx) > 0 {
				r.first = time.Since(start) // tiered: the refining-phase answer
			}
			if view.DegradedFrom != "" {
				r.degraded = true
			}
			switch view.State {
			case service.StateDeadline:
				r.status = "deadline"
				r.total = time.Since(start)
				return r
			case service.StateFailed, service.StateCanceled:
				fmt.Fprintf(os.Stderr, "loadgen: request %d: job %s: %s (%s)\n", idx, view.ID, view.State, view.Error)
				return r
			}
			if time.Now().After(deadline) {
				fmt.Fprintf(os.Stderr, "loadgen: request %d: job %s: timeout in state %s\n", idx, view.ID, view.State)
				return r
			}
			time.Sleep(o.poll)
			resp, err := client.Get(base + "/v1/jobs/" + view.ID)
			if err != nil {
				pollFails++
				if pollFails > o.maxRetries {
					fmt.Fprintf(os.Stderr, "loadgen: request %d: job %s: %v\n", idx, view.ID, err)
					return r
				}
				transportRetries.poll.Add(1)
				time.Sleep(backoff(pollFails, 0))
				continue
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusOK:
				pollFails = 0
				if err := json.Unmarshal(data, &view); err != nil {
					fmt.Fprintf(os.Stderr, "loadgen: request %d: %v\n", idx, err)
					return r
				}
			case resp.StatusCode == http.StatusNotFound:
				// The job record is gone: a replica died holding it
				// before any failover tier could replay it. Start over.
				if submits >= o.maxRetries || time.Now().After(deadline) {
					fmt.Fprintf(os.Stderr, "loadgen: request %d: job %s lost and retries exhausted\n", idx, view.ID)
					return r
				}
				transportRetries.resubmits.Add(1)
				continue resubmit
			default:
				// 502 while a gateway fails the job's replica over, or a
				// transient 5xx: re-poll, and treat persistent
				// unavailability as job loss.
				pollFails++
				if pollFails > o.maxRetries {
					if submits >= o.maxRetries || time.Now().After(deadline) {
						fmt.Fprintf(os.Stderr, "loadgen: request %d: job %s unreachable (status %d) and retries exhausted\n", idx, view.ID, resp.StatusCode)
						return r
					}
					transportRetries.resubmits.Add(1)
					continue resubmit
				}
				transportRetries.poll.Add(1)
				time.Sleep(backoff(pollFails, retryAfterHint(resp)))
			}
		}
		if view.DegradedFrom != "" {
			r.degraded = true
		}
		r.status = "done"
		r.total = time.Since(start)
		if r.first == 0 {
			r.first = r.total
		}
		return r
	}
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func report(w io.Writer, res *outcome, o options) {
	if o.rate > 0 {
		fmt.Fprintf(w, "\nloadgen report (corpus %s, open loop at %.0f req/s)\n", o.corpus, o.rate)
	} else {
		fmt.Fprintf(w, "\nloadgen report (corpus %s, conc %d)\n", o.corpus, o.conc)
	}
	fmt.Fprintf(w, "  requests:   %d completed, %d failed in %s\n", res.completed, res.failed, res.wall.Round(time.Millisecond))
	fmt.Fprintf(w, "  overload:   %d shed, %d deadline, %d degraded to a cheaper tier\n",
		res.shed, res.deadlined, res.degraded)
	if res.connRetries+res.pollRetries+res.resubmits > 0 {
		fmt.Fprintf(w, "  transport:  %d submit retries, %d poll retries, %d resubmits after job loss\n",
			res.connRetries, res.pollRetries, res.resubmits)
	}
	if o.rate > 0 {
		fmt.Fprintf(w, "  throughput: %.1f jobs/s completed (offered %.1f req/s)\n",
			float64(res.completed)/res.wall.Seconds(), o.rate)
	} else {
		fmt.Fprintf(w, "  throughput: %.1f jobs/s\n", float64(res.completed)/res.wall.Seconds())
	}
	fmt.Fprintf(w, "  latency:    mean %s  p50 %s  p95 %s  p99 %s  max %s\n",
		res.mean.Round(time.Microsecond),
		percentile(res.latencies, 0.50).Round(time.Microsecond),
		percentile(res.latencies, 0.95).Round(time.Microsecond),
		percentile(res.latencies, 0.99).Round(time.Microsecond),
		percentile(res.latencies, 1.0).Round(time.Microsecond))
	fmt.Fprintf(w, "  first ans:  mean %s  p50 %s  p95 %s  (tiered jobs answer at the approx phase)\n",
		res.meanFirst.Round(time.Microsecond),
		percentile(res.firsts, 0.50).Round(time.Microsecond),
		percentile(res.firsts, 0.95).Round(time.Microsecond))
	fmt.Fprintf(w, "  cache:      %d hits at submit (%.0f%% of requests)\n",
		res.hits, 100*float64(res.hits)/float64(max(1, res.completed)))
	m := res.metrics
	fmt.Fprintf(w, "  server:     hit rate %.2f, %d protocol runs, %.0f rounds/s, %d coalesced\n",
		m.CacheHitRate, m.Completed, m.RoundsPerSec, m.Coalesced)
	if m.Shed+m.Deadlined+m.Degraded+m.AdmissionRejected > 0 {
		fmt.Fprintf(w, "  server ovl: %d shed, %d deadline, %d degraded, %d admission-rejected\n",
			m.Shed, m.Deadlined, m.Degraded, m.AdmissionRejected)
	}
}

// emitBench renders the outcome as one `go test -bench`-style line per
// metric family, consumable by cmd/benchjson. The row names carry no
// `-N` suffix, so a `gomaxprocs:` header records the GOMAXPROCS this
// process ran at.
func emitBench(w io.Writer, res *outcome, o options) {
	if res.completed == 0 {
		return
	}
	fmt.Fprintf(w, "goos: %s\n", runtime.GOOS)
	fmt.Fprintf(w, "goarch: %s\n", runtime.GOARCH)
	fmt.Fprintf(w, "gomaxprocs: %d\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "pkg: distmincut/cmd/loadgen\n")
	name := fmt.Sprintf("BenchmarkServiceLoadgen/corpus=%s/conc=%d", o.corpus, o.conc)
	first := fmt.Sprintf("BenchmarkServiceFirstAnswer/corpus=%s/conc=%d", o.corpus, o.conc)
	if o.rate > 0 {
		name = fmt.Sprintf("BenchmarkServiceLoadgenOpen/corpus=%s/rate=%.0f", o.corpus, o.rate)
		first = fmt.Sprintf("BenchmarkServiceFirstAnswerOpen/corpus=%s/rate=%.0f", o.corpus, o.rate)
	}
	fmt.Fprintf(w, "%s \t %d \t %d ns/op \t %.2f jobs/s \t %.3f hit-ratio \t %d p50-ns \t %d p95-ns \t %d p99-ns \t %.1f rounds/s\n",
		name, res.completed, res.mean.Nanoseconds(),
		float64(res.completed)/res.wall.Seconds(),
		res.metrics.CacheHitRate,
		percentile(res.latencies, 0.50).Nanoseconds(),
		percentile(res.latencies, 0.95).Nanoseconds(),
		percentile(res.latencies, 0.99).Nanoseconds(),
		res.metrics.RoundsPerSec)
	// The first-answer row is the tiered flow's headline: time to any
	// usable answer, which for tiered jobs is the (1+ε) phase published
	// while exact certification continues in the background.
	fmt.Fprintf(w, "%s \t %d \t %d ns/op \t %d p50-ns \t %d p95-ns \t %d p99-ns\n",
		first, res.completed, res.meanFirst.Nanoseconds(),
		percentile(res.firsts, 0.50).Nanoseconds(),
		percentile(res.firsts, 0.95).Nanoseconds(),
		percentile(res.firsts, 0.99).Nanoseconds())
}

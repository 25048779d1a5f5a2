// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload in a closed loop for a fixed time, checks every answer
// against a sequential oracle, and prints each metric by name and unit,
// ending with one JSON line that carries the metrics BENCHMARK.json
// lists. Run it from the repository root:
//
//	bash perfbench/run.sh --workload exact-narrow --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it runs the workload twice, untraced and then traced,
// reports the per-layer metrics of the traced pass and writes the pass's
// spans as a Chrome trace. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

var processStart = time.Now()

// setupRuns is how many cold set-ups setup_s is the median of: the
// run's own and setupRuns-1 more, each in a fresh process of this
// binary that sets the workload up, reports the time since its start
// and exits. setupOnlyEnv set to 1 selects that mode.
const (
	setupRuns    = 3
	setupOnlyEnv = "PERFBENCH_SETUP_ONLY"
)

// endToEnd and perLayer are the metric names BENCHMARK.json lists, in
// its order; the JSON line carries exactly one of the two lists.
var endToEnd = []string{
	"setup_s", "latency_s_p50", "first_answer_s_p50", "miss_latency_s_p50",
	"ops_per_s", "peak_rss_mb", "rounds_per_op", "messages_per_op",
}

var perLayer = []string{
	"congest.setup_ms_per_op",
	"proto.bfs_rounds", "proto.bfs_messages", "proto.bfs_ms",
	"mst.mst_rounds", "mst.mst_messages", "mst.mst_ms",
	"respect.respect_rounds", "respect.respect_messages", "respect.respect_ms",
	"packing.pack_rounds", "packing.pack_messages", "packing.pack_ms",
	"packing.markside_rounds", "packing.markside_messages", "packing.markside_ms",
	"packing.evalcut_rounds", "packing.evalcut_messages", "packing.evalcut_ms",
	"runtime.alloc_mb_per_op", "runtime.gc_cycles_per_op", "runtime.gc_cpu_share",
	"runtime.sched_latency_us_p50", "runtime.goroutines_peak",
	"trace.overhead_ratio", "trace.unaccounted_share",
}

// config is one run's settings. The input sizes are fixed by the
// workload; tests shrink them to keep smoke runs short.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // directory for the Chrome trace

	enGraphs int // planted graphs in the exact-narrow pool
	enHalf   int // nodes per planted side on exact-narrow
	twGraphs int // bridged expanders in the tiered-wide pool
	twHalf   int // nodes per expander on tiered-wide
	smPrefix int // leading service-mix stream ops behind the exact counters
}

func defaultConfig(workload string, seed int64) (config, error) {
	cfg := config{workload: workload, seed: seed, enGraphs: 32, enHalf: 24, twGraphs: 10, twHalf: 2048, smPrefix: 330}
	switch workload {
	case "exact-narrow", "tiered-wide", "service-mix":
		return cfg, nil
	}
	return cfg, fmt.Errorf("unknown workload %q (want exact-narrow, tiered-wide or service-mix)", workload)
}

// workload is one benchmark workload. setup builds its inputs, oracle
// and engine or service from the seed; pass runs ops in a closed loop
// for at least d, checks their answers after the loop, and continues
// the op stream where the previous pass stopped.
type workload interface {
	setup() error
	pass(d time.Duration, rec *recorder) (*passResult, error)
	close()
}

func newWorkload(cfg config) workload {
	switch cfg.workload {
	case "exact-narrow":
		return newExactNarrow(cfg)
	case "tiered-wide":
		return newTieredWide(cfg)
	default:
		return newServiceMix(cfg)
	}
}

// opRecord is one op's client-side view.
type opRecord struct {
	latency time.Duration // whole op
	first   time.Duration // until the op's first answer
	hit     bool          // answered from the service's result cache
}

// passResult is what one pass measured.
type passResult struct {
	ops      []opRecord
	wall     time.Duration
	failed   int
	problems []string
	// exact counters over the leading ops of the stream (see prefix)
	prefix prefix
	// traced passes only: per-layer metrics, the op time the recorded
	// spans' self times account for, and the most goroutines seen, sampled
	// at every round barrier or client poll
	layer          []metric
	accounted      time.Duration
	goroutinesPeak int
}

// prefix sums the deterministic counters over the first ops of the
// op stream, so that they repeat exactly for a seed however many ops a
// run completes. The process's peak RSS is read when the prefix is
// done, so that it too does not grow with the ops a run completes.
type prefix struct {
	ops, hits                 int
	rounds, messages, wakeups int64
	peakRSSMB                 float64
}

func (p *prefix) add(rounds, messages, wakeups int64, hit bool) {
	p.ops++
	p.rounds += rounds
	p.messages += messages
	p.wakeups += wakeups
	if hit {
		p.hits++
	}
}

type outcome struct {
	attempted, failed int
	problems          []string
	setup             samples  // set-up times behind setup_s
	metrics           []metric // every metric, in report order
	trace             string   // where a traced run wrote its Chrome trace
}

func (o *outcome) find(name string) (metric, bool) {
	for _, m := range o.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// setUp builds and sets up cfg's workload and returns it with the time
// from start to the end of its set-up.
func setUp(cfg config, start time.Time) (workload, time.Duration, error) {
	w := newWorkload(cfg)
	if err := w.setup(); err != nil {
		w.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return w, time.Since(start), nil
}

// run sets the workload up once, timing it from start, and measures it.
func run(cfg config, start time.Time) (*outcome, error) {
	w, setup, err := setUp(cfg, start)
	if err != nil {
		return nil, err
	}
	defer w.close()

	half := cfg.seconds
	if cfg.trace {
		half = cfg.seconds / 2
	}
	plain, err := w.pass(half, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: len(plain.ops), failed: plain.failed, problems: plain.problems, setup: samples{setup.Seconds()}}
	out.metrics = endToEndMetrics(out.setup, plain)
	if !cfg.trace {
		return out, nil
	}

	rec := &recorder{}
	before := readRuntime()
	traced, err := w.pass(cfg.seconds-half, rec)
	after := readRuntime()
	if err != nil {
		return nil, err
	}
	out.attempted += len(traced.ops)
	out.failed += traced.failed
	out.problems = append(out.problems, traced.problems...)
	out.metrics = append(out.metrics, traced.layer...)
	out.metrics = append(out.metrics, runtimeMetrics(before, after, len(traced.ops), traced.goroutinesPeak)...)
	lat := latencies(traced.ops)
	var total float64
	for _, v := range lat {
		total += v
	}
	unaccounted := 0.0
	if total > 0 {
		unaccounted = (total - traced.accounted.Seconds()) / total
	}
	out.metrics = append(out.metrics,
		metric{name: "trace.overhead_ratio", unit: "ratio", value: lat.median() / latencies(plain.ops).median(),
			note: "traced over untraced latency_s_p50"},
		metric{name: "trace.unaccounted_share", unit: "ratio", value: unaccounted,
			note: "share of op time no recorded span's self time covers"},
	)
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := rec.write(path, tags(cfg)); err != nil {
		return nil, err
	}
	out.trace = fmt.Sprintf("%s (%d spans)", path, len(rec.spans))
	return out, nil
}

func latencies(ops []opRecord) samples {
	s := make(samples, len(ops))
	for i, op := range ops {
		s[i] = op.latency.Seconds()
	}
	return s
}

func endToEndMetrics(setup samples, p *passResult) []metric {
	var first, miss, hit samples
	for _, op := range p.ops {
		first = append(first, op.first.Seconds())
		if op.hit {
			hit = append(hit, op.latency.Seconds())
		} else {
			miss = append(miss, op.latency.Seconds())
		}
	}
	out := []metric{
		timing("setup_s", setup, 1, "s"),
		timing("latency_s_p50", latencies(p.ops), 1, "s"),
		timing("first_answer_s_p50", first, 1, "s"),
		timing("miss_latency_s_p50", miss, 1, "s"),
	}
	if len(hit) > 0 {
		out = append(out, timing("hit_latency_s_p50", hit, 1, "s"))
	} else {
		out = append(out, metric{name: "hit_latency_s_p50", unit: "s", value: math.NaN(), note: "no op is a cache hit on this workload"})
	}
	failedRatio := 0.0
	if len(p.ops) > 0 {
		failedRatio = float64(p.failed) / float64(len(p.ops))
	}
	return append(out,
		metric{name: "ops_per_s", unit: "1/s", value: float64(len(p.ops)) / p.wall.Seconds()},
		metric{name: "peak_rss_mb", unit: "MB", value: p.prefix.peakRSSMB,
			note: fmt.Sprintf("when the first %d ops were done", p.prefix.ops)},
		metric{name: "rounds_per_op", unit: "count", value: mean(float64(p.prefix.rounds), p.prefix.ops),
			note: fmt.Sprintf("over the first %d ops", p.prefix.ops)},
		metric{name: "messages_per_op", unit: "count", value: mean(float64(p.prefix.messages), p.prefix.ops),
			note: fmt.Sprintf("over the first %d ops", p.prefix.ops)},
		metric{name: "failed_ratio", unit: "ratio", value: failedRatio},
	)
}

// addColdSetups sets the workload up setupRuns-1 more times, each in a
// fresh process, and makes setup_s the median of every set-up. It runs
// after the measured passes and after their workload is closed, so the
// children share the machine with nothing of the run.
func (o *outcome) addColdSetups(cfg config) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for r := 1; r < setupRuns; r++ {
		cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10))
		cmd.Env = append(os.Environ(), setupOnlyEnv+"=1")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("cold set-up %d: %w", r, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		secs, err := strconv.ParseFloat(string(lines[len(lines)-1]), 64)
		if err != nil {
			return fmt.Errorf("cold set-up %d printed %q: %w", r, out, err)
		}
		o.setup = append(o.setup, secs)
	}
	for i, m := range o.metrics {
		if m.name == "setup_s" {
			o.metrics[i] = timing("setup_s", o.setup, 1, "s")
			o.metrics[i].note = fmt.Sprintf("median of %d cold set-ups, this run's %.6g s", len(o.setup), o.setup[0])
		}
	}
	return nil
}

// setupOnly is a cold set-up child's whole run: it sets the workload up,
// prints the seconds since the process started and exits.
func setupOnly(args []string) int {
	cfg, err := parseFlags(args)
	if err == nil {
		var w workload
		var d time.Duration
		if w, d, err = setUp(cfg, processStart); err == nil {
			w.close()
			fmt.Println(d.Seconds())
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result builds the closing JSON line from the names BENCHMARK.json
// lists for this mode.
func (o *outcome) result(names []string) (jsonResult, error) {
	r := jsonResult{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]jsonMetric{}}
	for _, n := range names {
		m, ok := o.find(n)
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return r, fmt.Errorf("metric %s was not measured", n)
		}
		r.Metrics[n] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return r, nil
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "exact-narrow, tiered-wide or service-mix")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	secs := fs.Float64("seconds", 20, "measured time of the run")
	traceFlag := fs.Int("trace", 0, "1 runs an untraced and a traced pass and reports per-layer metrics")
	out := fs.String("out", ".", "directory for the Chrome trace of a traced run")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg, err := defaultConfig(*workloadName, *seed)
	if err == nil && (*secs <= 0 || (*traceFlag != 0 && *traceFlag != 1)) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	cfg.seconds = time.Duration(*secs * float64(time.Second))
	cfg.trace = *traceFlag == 1
	cfg.out = *out
	return cfg, err
}

func main() {
	if os.Getenv(setupOnlyEnv) == "1" {
		os.Exit(setupOnly(os.Args[1:]))
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	fmt.Println("#", tags(cfg))
	o, err := run(cfg, processStart)
	if err == nil {
		err = o.addColdSetups(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, m := range o.metrics {
		fmt.Println(m.line())
	}
	if o.trace != "" {
		fmt.Println("# chrome trace:", o.trace)
	}
	for _, p := range o.problems {
		fmt.Println("# FAILED:", p)
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	res, err := o.result(names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if o.failed > 0 {
		os.Exit(1)
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime/metrics"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary as a
// cold set-up child, the way addColdSetups starts one.
func TestMain(m *testing.M) {
	if os.Getenv(setupOnlyEnv) == "1" {
		os.Exit(setupOnly(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// smallConfig shrinks a workload's inputs so a smoke run takes seconds;
// the code paths are the full ones.
func smallConfig(t *testing.T, workload string, seed int64, trace bool) config {
	t.Helper()
	cfg, err := defaultConfig(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.enGraphs, cfg.enHalf = 2, 12
	cfg.twGraphs, cfg.twHalf = 2, 64
	cfg.smPrefix = 40
	cfg.seconds = 300 * time.Millisecond
	if workload == "service-mix" && trace {
		cfg.seconds = 3 * time.Second // enough misses to cross every exact-pipeline phase
	}
	cfg.trace = trace
	cfg.out = t.TempDir()
	return cfg
}

func runSmall(t *testing.T, workload string, seed int64, trace bool) *outcome {
	t.Helper()
	o, err := run(smallConfig(t, workload, seed, trace), time.Now())
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if o.failed != 0 || o.attempted == 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", workload, o.failed, o.attempted, o.problems)
	}
	return o
}

func value(t *testing.T, o *outcome, name string) float64 {
	t.Helper()
	m, ok := o.find(name)
	if !ok {
		t.Fatalf("metric %s missing", name)
	}
	return m.value
}

var workloads = []string{"exact-narrow", "tiered-wide", "service-mix"}

// TestSmoke runs every workload untraced and traced and checks that the
// JSON line would carry every metric BENCHMARK.json lists, each nonzero.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := runSmall(t, w, 1, trace)
			names := endToEnd
			if trace {
				names = perLayer
			}
			r, err := o.result(names)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			for n, m := range r.Metrics {
				if m.Value == 0 {
					t.Errorf("%s trace=%v: %s is 0", w, trace, n)
				}
			}
		}
	}
}

// TestColdSetups checks that setup_s becomes the median of setupRuns
// set-ups, the run's own and the cold ones its children time.
func TestColdSetups(t *testing.T) {
	o := runSmall(t, "exact-narrow", 1, false)
	if err := o.addColdSetups(smallConfig(t, "exact-narrow", 1, false)); err != nil {
		t.Fatal(err)
	}
	if len(o.setup) != setupRuns {
		t.Fatalf("%d set-up samples, want %d", len(o.setup), setupRuns)
	}
	for _, s := range o.setup {
		if s <= 0 {
			t.Fatalf("set-up samples %v", o.setup)
		}
	}
	if got, want := value(t, o, "setup_s"), o.setup.median(); got != want {
		t.Errorf("setup_s = %v, want the median %v of %v", got, want, o.setup)
	}
}

// TestCountersRepeat checks that the deterministic counters repeat
// exactly for one seed and that another seed changes the inputs.
func TestCountersRepeat(t *testing.T) {
	exact := map[string][]string{
		"exact-narrow": {"rounds_per_op", "messages_per_op", "congest.wakeups_per_op"},
		"tiered-wide":  {"rounds_per_op", "messages_per_op", "congest.wakeups_per_op"},
		"service-mix":  {"rounds_per_op", "messages_per_op", "service.hit_ratio"},
	}
	for _, w := range workloads {
		a, b, c := runSmall(t, w, 1, true), runSmall(t, w, 1, true), runSmall(t, w, 2, true)
		for _, n := range exact[w] {
			if va, vb := value(t, a, n), value(t, b, n); va != vb {
				t.Errorf("%s: %s = %v then %v for one seed", w, n, va, vb)
			}
		}
		if value(t, a, "messages_per_op") == value(t, c, "messages_per_op") {
			t.Errorf("%s: seeds 1 and 2 give the same messages_per_op; the seed does not reach the inputs", w)
		}
	}
}

// TestBenchmarkJSONNames keeps BENCHMARK.json and the benchmark's metric
// lists in step.
func TestBenchmarkJSONNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	o := runSmall(t, "exact-narrow", 1, true)
	check := func(kind string, listed []struct{ Name, Unit string }, names []string) {
		if len(listed) != len(names) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(listed), len(names))
		}
		for i, m := range listed {
			if m.Name != names[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %s, perfbench %s", kind, i, m.Name, names[i])
			}
			if got, ok := o.find(m.Name); ok && got.unit != m.Unit {
				t.Errorf("%s: unit %s in BENCHMARK.json, %s measured", m.Name, m.Unit, got.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestStatistics(t *testing.T) {
	s := make(samples, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if p, v, ok := s.tail(); !ok || p != 90 || v != 90 {
		t.Errorf("tail of 1..100 = p%v %v %v, want p90 90", p, v, ok)
	}
	if _, _, ok := s[:19].tail(); ok {
		t.Error("19 samples have no percentile above the median with ten beyond it")
	}
	if m := s[:4].median(); m != 2.5 {
		t.Errorf("median of 1..4 = %v", m)
	}
	buckets := []float64{math.Inf(-1), 0, 10, 20, math.Inf(1)}
	before := &metrics.Float64Histogram{Counts: []uint64{0, 5, 5, 0}, Buckets: buckets}
	after := &metrics.Float64Histogram{Counts: []uint64{0, 7, 11, 1}, Buckets: buckets}
	// The pass added 2 samples in [0,10), 6 in [10,20) and 1 above 20;
	// the median, rank 4.5 of 9, lies 2.5/6 of the way into [10,20).
	if m := histMedian(before, after); math.Abs(m-(10+10*2.5/6)) > 1e-9 {
		t.Errorf("histMedian = %v", m)
	}
}

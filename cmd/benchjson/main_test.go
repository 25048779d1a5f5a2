package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func writeReport(t *testing.T, name string, metrics map[string]float64) string {
	t.Helper()
	rep := Report{Benchmarks: []Benchmark{{Name: "BenchmarkSampleWeight-2", Iterations: 1, Metrics: metrics}}}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareZeroAllocBaseline: a row that allocated nothing at the
// baseline fails the default gate as soon as it allocates at all, and
// a baseline that never reported allocs/op leaves that axis ungated.
func TestCompareZeroAllocBaseline(t *testing.T) {
	const match = "BenchmarkEngine(Million)?Expander|BenchmarkSampleWeight"
	zero := writeReport(t, "zero.json", map[string]float64{"ns/op": 100, "allocs/op": 0})
	same := writeReport(t, "same.json", map[string]float64{"ns/op": 105, "allocs/op": 0})
	allocs := writeReport(t, "allocs.json", map[string]float64{"ns/op": 100, "allocs/op": 1})
	noAllocs := writeReport(t, "noallocs.json", map[string]float64{"ns/op": 100})
	for _, tc := range []struct {
		name     string
		old, new string
		want     int
	}{
		{"still zero", zero, same, 0},
		{"starts allocating", zero, allocs, 1},
		{"baseline predates allocs/op", noAllocs, allocs, 0},
	} {
		if got := runCompare([]string{tc.old, tc.new}, 0.20, match, false); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestDedupeKeepsEachMinimum: three -count runs of the expander row
// where the fastest one also rebuilt its pools after a GC (29,678
// allocs/op against 10,090). The collapsed row keeps the fastest
// run's ns/op and iterations, and B/op and allocs/op at their own
// minimum, so it passes the 20% allocs/op gate against a 10,091
// baseline instead of reading as a regression.
func TestDedupeKeepsEachMinimum(t *testing.T) {
	const name = "BenchmarkEngineExpanderExchange-2"
	in := []Benchmark{
		{Name: name, Iterations: 10, Metrics: map[string]float64{"ns/op": 131e6, "B/op": 1955363, "allocs/op": 10090, "msgs/s": 4.9e6}},
		{Name: name, Iterations: 12, Metrics: map[string]float64{"ns/op": 119e6, "B/op": 4012790, "allocs/op": 29678, "msgs/s": 5.4e6}},
		{Name: name, Iterations: 10, Metrics: map[string]float64{"ns/op": 126e6, "B/op": 1955371, "allocs/op": 10090, "msgs/s": 5.1e6}},
		{Name: "BenchmarkSampleWeight-2", Iterations: 1e7, Metrics: map[string]float64{"ns/op": 100, "allocs/op": 0}},
	}
	out := dedupeBest(in)
	if len(out) != 2 {
		t.Fatalf("got %d rows, want 2", len(out))
	}
	got := out[0]
	want := map[string]float64{"ns/op": 119e6, "B/op": 1955363, "allocs/op": 10090, "msgs/s": 5.4e6}
	if got.Iterations != 12 || len(got.Metrics) != len(want) {
		t.Fatalf("got %+v, want iterations 12 and metrics %v", got, want)
	}
	for m, v := range want {
		if got.Metrics[m] != v {
			t.Errorf("%s = %v, want %v", m, got.Metrics[m], v)
		}
	}
	if in[1].Metrics["allocs/op"] != 29678 {
		t.Error("dedupeBest modified its input")
	}

	dir := t.TempDir()
	write := func(file string, b Benchmark) string {
		data, err := json.Marshal(Report{Benchmarks: []Benchmark{b}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, file)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", Benchmark{Name: name, Iterations: 12, Metrics: map[string]float64{"ns/op": 110e6, "allocs/op": 10091}})
	if code := runCompare([]string{base, write("new.json", got)}, 0.20, "BenchmarkEngineExpander", false); code != 0 {
		t.Fatalf("allocs/op gate: exit %d on an unchanged-allocation row, want 0", code)
	}
}

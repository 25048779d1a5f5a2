package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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

// TestReportRecordsProcs: a converted report records GOMAXPROCS from
// the names' -N suffix (1 without one) and this machine's CPU count,
// and -compare's host note shows both sides and flags a difference
// without failing the gate.
func TestReportRecordsProcs(t *testing.T) {
	convert := func(in string) Report {
		t.Helper()
		var out bytes.Buffer
		if code := run(strings.NewReader(in), &out); code != 0 {
			t.Fatalf("run exited %d", code)
		}
		var rep Report
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	two := convert("BenchmarkSampleWeight-2 \t 100 \t 90 ns/op \t 0 allocs/op\n")
	one := convert("BenchmarkServiceLoadgen/corpus=quick/conc=8 \t 128 \t 23044779 ns/op \t 355288 p50-ns\n")
	if two.GOMAXPROCS != 2 || one.GOMAXPROCS != 1 {
		t.Fatalf("gomaxprocs %d and %d, want 2 and 1", two.GOMAXPROCS, one.GOMAXPROCS)
	}
	if two.NProc != runtime.NumCPU() || one.NProc != runtime.NumCPU() {
		t.Fatalf("nproc %d and %d, want %d", two.NProc, one.NProc, runtime.NumCPU())
	}

	for _, tc := range []struct {
		old, new Report
		note     string
		differ   bool
	}{
		{Report{GOMAXPROCS: 2, NProc: 2}, Report{GOMAXPROCS: 2, NProc: 2}, "gomaxprocs 2 -> 2, nproc 2 -> 2", false},
		{Report{GOMAXPROCS: 2, NProc: 2}, Report{GOMAXPROCS: 4, NProc: 2}, "gomaxprocs 2 -> 4, nproc 2 -> 2", true},
		{Report{GOMAXPROCS: 2, NProc: 2}, Report{GOMAXPROCS: 2, NProc: 8}, "gomaxprocs 2 -> 2, nproc 2 -> 8", true},
		{Report{}, Report{GOMAXPROCS: 2, NProc: 2}, "gomaxprocs 0 -> 2, nproc 0 -> 2", true},
	} {
		note, differ := hostNote(&tc.old, &tc.new)
		if note != tc.note || differ != tc.differ {
			t.Errorf("hostNote = %q, %v; want %q, %v", note, differ, tc.note, tc.differ)
		}
	}

	dir := t.TempDir()
	write := func(file string, rep Report) string {
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, file)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	wider := two
	wider.GOMAXPROCS = 4
	if code := runCompare([]string{write("old.json", two), write("new.json", wider)}, 0.20, "BenchmarkSampleWeight", false); code != 0 {
		t.Fatalf("a GOMAXPROCS difference failed the gate: exit %d", code)
	}
}

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
	const match = "BenchmarkEngine(Million)?(Step)?Expander|BenchmarkSampleWeight"
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

// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON document on stdout, used by `make bench` and CI
// to publish BENCH_engine.json as the perf trajectory artifact.
//
// It also implements the CI perf-regression gate: -compare checks a new
// report against a committed baseline and exits non-zero when a gated
// metric worsened beyond the threshold on the gated benchmarks. The
// gated metric set is chosen per benchmark from what it reports: service
// latency rows (p50-ns present) gate p50-ns and p95-ns, million-scale
// engine rows (round-ns present) gate round-ns and allocs/op, everything
// else gates ns/op and allocs/op.
//
// Every report records the GOMAXPROCS its benchmarks ran at and the
// CPU count of the machine that converted it. A `gomaxprocs: N` header
// line (cmd/loadgen writes one; its row names carry no suffix) sets it;
// otherwise it is the `-N` suffix go test appends to the first name, 1
// when there is none. -compare prints both
// sides' values and warns when they differ, since wall-time rows are
// only comparable at equal parallelism.
//
// With -allow-missing, a -compare run whose baseline has no benchmarks
// matching -match warns and exits 0 instead of 2 — used for gates over
// metrics the base ref may predate (the open-loop service rows), so the
// gate arms itself on the first PR after the metric lands.
//
// Usage:
//
//	go test ./internal/congest -bench BenchmarkEngine -benchmem | benchjson > BENCH_engine.json
//	benchjson -compare BENCH_engine.json new.json [-threshold 0.20] [-match 'BenchmarkEngine(Million)?Expander|BenchmarkSampleWeight'] [-allow-missing]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line. Metrics maps unit -> value for
// every `value unit` pair after the iteration count (ns/op, B/op,
// allocs/op, plus any custom b.ReportMetric units such as msgs/s).
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the whole document. GOMAXPROCS and NProc read 0 in reports
// written before they were recorded.
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NProc      int         `json:"nproc"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	compare := flag.Bool("compare", false, "compare two report files (old new) instead of converting stdin")
	threshold := flag.Float64("threshold", 0.20, "relative regression tolerated by -compare (0.20 = 20%)")
	// The default gate covers the expander rows at both scales
	// (BenchmarkEngineExpander*, BenchmarkEngineMillionExpander*) and the
	// skeleton sampler's BenchmarkSampleWeight, whose zero allocs/op
	// baseline fails the gate on any allocation.
	match := flag.String("match", "BenchmarkEngine(Million)?Expander|BenchmarkSampleWeight", "regexp of benchmark names gated by -compare")
	allowMissing := flag.Bool("allow-missing", false, "exit 0 when the baseline has no benchmarks matching -match (new-metric grace)")
	flag.Parse()
	if *compare {
		os.Exit(runCompare(flag.Args(), *threshold, *match, *allowMissing))
	}
	os.Exit(run(os.Stdin, os.Stdout))
}

func run(in io.Reader, out io.Writer) int {
	rep := Report{GOMAXPROCS: 1, NProc: runtime.NumCPU()}
	procsHeader := false
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "gomaxprocs:"):
			if n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "gomaxprocs:"))); err == nil && n > 0 {
				rep.GOMAXPROCS, procsHeader = n, true
			}
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				if m := procsSuffix.FindStringSubmatch(b.Name); m != nil && len(rep.Benchmarks) == 0 && !procsHeader {
					rep.GOMAXPROCS, _ = strconv.Atoi(m[1])
				}
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	rep.Benchmarks = dedupeBest(rep.Benchmarks)
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		return 1
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	return 0
}

// procsSuffix matches the GOMAXPROCS suffix go test appends to a
// benchmark name when it is above 1.
var procsSuffix = regexp.MustCompile(`-(\d+)$`)

func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: f[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[f[i+1]] = v
	}
	return b, true
}

// dedupeBest collapses repeated lines for the same benchmark (`go test
// -count N`) into the run with the lowest ns/op, then lowers that
// row's B/op and allocs/op to their own minimum across the runs. The
// minimum is the standard estimator on machines with noisy co-tenants:
// external interference only ever slows a run down, so the fastest
// observation is the closest to the code's true cost. Allocation counts
// are not tied to speed: a GC that empties a sync.Pool mid-run makes
// that run rebuild what the pool held, so the fastest run can carry
// three times the allocations of the others.
func dedupeBest(benchmarks []Benchmark) []Benchmark {
	best := map[string]int{}
	var out []Benchmark
	for _, b := range benchmarks {
		i, seen := best[b.Name]
		if !seen {
			best[b.Name] = len(out)
			b.Metrics = maps.Clone(b.Metrics)
			out = append(out, b)
			continue
		}
		prev := out[i].Metrics
		if b.Metrics["ns/op"] < prev["ns/op"] {
			out[i] = b
			out[i].Metrics = maps.Clone(b.Metrics)
		}
		for _, m := range minMetrics {
			pv, inPrev := prev[m]
			bv, inB := b.Metrics[m]
			if inPrev && inB {
				out[i].Metrics[m] = min(pv, bv)
			}
		}
	}
	return out
}

// minMetrics are the lower-is-better metrics dedupeBest takes the
// minimum of on their own, whichever run was fastest.
var minMetrics = []string{"B/op", "allocs/op"}

// gatedMetrics are the metrics -compare enforces: lower is better for
// all of them. allocs/op is not noise-free (pools emptied by a GC
// rebuild their contents), which is why dedupeBest keeps its minimum
// over the -count runs.
// When a benchmark reports the round-ns metric (the million workloads,
// which split steady-state round time from engine setup), round-ns
// replaces ns/op as the gated time metric: setup cost at that scale is
// kernel-bound and co-tenant-noisy, while round time is the number the
// engine work actually moves. When a benchmark reports p50-ns (the
// service loadgen rows), the latency percentiles are gated instead:
// mean ns/op on an open-loop run is dominated by the run's tail, while
// p50/p95 are the serving numbers the service PRs actually move. A
// baseline that predates a metric simply leaves that axis ungated for
// the benchmark (missing baseline metrics are skipped, never failed).
// A baseline of 0 allocs/op has no ratio to scale, so any allocation
// in the new report fails it.
var gatedMetrics = []string{"ns/op", "allocs/op"}

var gatedMetricsRound = []string{"round-ns", "allocs/op"}

var gatedMetricsLatency = []string{"p50-ns", "p95-ns"}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// hostNote renders both reports' GOMAXPROCS and CPU counts, and
// reports whether they differ.
func hostNote(oldRep, newRep *Report) (string, bool) {
	return fmt.Sprintf("gomaxprocs %d -> %d, nproc %d -> %d", oldRep.GOMAXPROCS, newRep.GOMAXPROCS, oldRep.NProc, newRep.NProc),
		oldRep.GOMAXPROCS != newRep.GOMAXPROCS || oldRep.NProc != newRep.NProc
}

// runCompare exits 0 when every gated benchmark present in both reports
// stays within threshold on every gated metric, 1 on regression, 2 on
// usage or I/O errors. Benchmarks present on only one side are reported
// but never fail the gate (they are new or retired workloads); an empty
// intersection is exit 2 unless allowMissing grants the new-metric
// grace.
func runCompare(args []string, threshold float64, match string, allowMissing bool) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchjson: -compare wants exactly two arguments: old.json new.json")
		return 2
	}
	re, err := regexp.Compile(match)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: bad -match:", err)
		return 2
	}
	oldRep, err := loadReport(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	newRep, err := loadReport(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	if note, differ := hostNote(oldRep, newRep); differ {
		fmt.Fprintln(os.Stderr, "benchjson: warning: the reports ran on different hosts or settings:", note)
	} else {
		fmt.Println(note)
	}
	oldBy := map[string]Benchmark{}
	for _, b := range oldRep.Benchmarks {
		oldBy[b.Name] = b
	}
	failed := false
	compared := 0
	for _, nb := range newRep.Benchmarks {
		if !re.MatchString(nb.Name) {
			continue
		}
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Printf("%-44s new benchmark, not gated\n", nb.Name)
			continue
		}
		delete(oldBy, nb.Name)
		compared++
		metrics := gatedMetrics
		switch {
		case nb.Metrics["p50-ns"] > 0:
			metrics = gatedMetricsLatency
		case nb.Metrics["round-ns"] > 0:
			metrics = gatedMetricsRound
		}
		for _, metric := range metrics {
			ov, had := ob.Metrics[metric]
			nv := nb.Metrics[metric]
			var ratio float64
			switch {
			case ov > 0:
				ratio = nv/ov - 1
			case had && metric == "allocs/op" && nv > 0:
				ratio = math.Inf(1)
			default:
				continue
			}
			status := "ok"
			if ratio > threshold {
				status = "REGRESSION"
				failed = true
			}
			fmt.Printf("%-44s %-10s %14.1f -> %14.1f  %+6.1f%%  %s\n",
				nb.Name, metric, ov, nv, 100*ratio, status)
		}
	}
	for name := range oldBy {
		if re.MatchString(name) {
			fmt.Printf("%-44s missing from new report, not gated\n", name)
		}
	}
	if compared == 0 {
		if allowMissing {
			fmt.Fprintf(os.Stderr, "benchjson: baseline has no benchmarks matching %q, gate skipped (-allow-missing)\n", match)
			return 0
		}
		fmt.Fprintf(os.Stderr, "benchjson: no benchmarks matched %q in both reports\n", match)
		return 2
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchjson: performance regression beyond %.0f%% threshold\n", 100*threshold)
		return 1
	}
	fmt.Printf("benchjson: %d benchmark(s) within %.0f%% of baseline\n", compared, 100*threshold)
	return 0
}

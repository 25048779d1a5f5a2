package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"

	"distmincut/internal/service"
)

// samples is one timing's per-op measurements, in seconds.
type samples []float64

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s samples) median() float64 {
	if len(s) == 0 {
		return 0
	}
	v := s.sorted()
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// tail returns the highest of a fixed ladder of percentiles that still
// has at least ten samples above it, and that percentile's value
// (nearest rank). ok is false when fewer than 20 samples leave no
// percentile above the median with ten samples beyond it.
func (s samples) tail() (pct, value float64, ok bool) {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9)) // nearest rank, 1-based
		if len(s)-rank >= 10 {
			return p, s.sorted()[rank-1], true
		}
	}
	return 0, 0, false
}

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// metric is one printed number. Timings carry their samples, so the
// report can give the median, the tail percentile and the count.
type metric struct {
	name  string
	unit  string
	value float64
	dist  samples
	note  string
}

func timing(name string, s samples, scale float64, unit string) metric {
	scaled := make(samples, len(s))
	for i, v := range s {
		scaled[i] = v * scale
	}
	return metric{name: name, unit: unit, value: scaled.median(), dist: scaled}
}

func (m metric) line() string {
	if math.IsNaN(m.value) {
		return fmt.Sprintf("%-34s %14s %-6s  # %s", m.name, "n/a", m.unit, m.note)
	}
	s := fmt.Sprintf("%-34s %14.6g %-6s", m.name, m.value, m.unit)
	if m.dist != nil {
		if p, v, ok := m.dist.tail(); ok {
			s += fmt.Sprintf(" median, p%g %.6g, n=%d", p, v, len(m.dist))
		} else {
			s += fmt.Sprintf(" median, n=%d (too few for a tail)", len(m.dist))
		}
	}
	if m.note != "" {
		s += "  # " + m.note
	}
	return s
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runtimeSnap is a reading of the Go runtime's own counters, taken at
// the start and end of the traced pass.
type runtimeSnap struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
	schedLat   *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	h := s[4].Value.Float64Histogram()
	return runtimeSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		schedLat: &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: h.Buckets,
		},
	}
}

// runtimeMetrics reports the runtime's work between two readings.
func runtimeMetrics(a, b runtimeSnap, ops, goroutinesPeak int) []metric {
	share := 0.0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		share = (b.gcCPU - a.gcCPU) / d
	}
	return []metric{
		{name: "runtime.alloc_mb_per_op", unit: "MB", value: mean(float64(b.allocBytes-a.allocBytes)/1e6, ops)},
		{name: "runtime.gc_cycles_per_op", unit: "count", value: mean(float64(b.gcCycles-a.gcCycles), ops)},
		{name: "runtime.gc_cpu_share", unit: "ratio", value: share},
		{name: "runtime.sched_latency_us_p50", unit: "us", value: histMedian(a.schedLat, b.schedLat) * 1e6},
		{name: "runtime.goroutines_peak", unit: "count", value: float64(goroutinesPeak)},
	}
}

// histMedian is the median of the samples a cumulative runtime
// histogram gained between two readings, interpolated linearly inside
// the bucket that holds it (at the lower edge of an unbounded bucket).
func histMedian(a, b *metrics.Float64Histogram) float64 {
	var total uint64
	d := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		d[i] = b.Counts[i] - a.Counts[i]
		total += d[i]
	}
	half := float64(total) / 2
	var seen float64
	for i, c := range d {
		if c == 0 || seen+float64(c) < half {
			seen += float64(c)
			continue
		}
		lo, hi := b.Buckets[i], b.Buckets[i+1]
		if math.IsInf(lo, -1) {
			return hi
		}
		if math.IsInf(hi, 1) {
			return lo
		}
		return lo + (hi-lo)*(half-seen)/float64(c)
	}
	return 0
}

// tags identifies the machine and build a result was measured on.
func tags(cfg config) string {
	b := service.ReadBuild()
	return fmt.Sprintf("workload=%s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		cpuModel(), b.GoVersion, b.Commit)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

package service

import (
	"os"
	"strings"
	"testing"
)

// pinnedHistogram is a fixed latency histogram over the service's
// bounds: bucket i holds i+base observations.
func pinnedHistogram(base int64, sum float64) HistogramSnapshot {
	h := HistogramSnapshot{Bounds: durationBounds, Counts: make([]int64, len(durationBounds)+1), SumSeconds: sum}
	for i := range h.Counts {
		h.Counts[i] = int64(i) + base
		h.Count += h.Counts[i]
	}
	return h
}

// TestWritePrometheusPinned holds the service exposition byte-identical
// for a fixed snapshot that sets every series.
func TestWritePrometheusPinned(t *testing.T) {
	m := Metrics{
		UptimeSec: 12.5, PoolSize: 2, QueueDepth: 3, QueueCapacity: 64, Running: 1, Refining: 1,
		Submitted: 40, Completed: 30, Failed: 2, Canceled: 3, Deadlined: 4, Degraded: 5, Shed: 6,
		AdmissionChecks: 7, AdmissionRejected: 8, AdmissionDowntiered: 9, Coalesced: 10, AuditMismatch: 14,
		CacheHits: 11, CacheMisses: 12, CacheHitRate: 11.0 / 23, CacheEntries: 13,
		RoundsTotal: 123456, RoundsPerSec: 9876.25, LiveRounds: 77,
		Build:         BuildInfo{Version: "v1.2.3", Commit: "0123456789ab+dirty", GoVersion: "go1.24.0"},
		PhaseRounds:   map[string]int64{"mst": 6271, "respect": 3593, "bfs": 10},
		PhaseMessages: map[string]int64{"mst": 200000, "respect": 130000, "bfs": 588},
		TierLatency: map[string]HistogramSnapshot{
			"exact":   pinnedHistogram(1, 3.75),
			"bracket": pinnedHistogram(0, 0.002),
		},
	}
	var b strings.Builder
	if err := WritePrometheus(&b, m); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("exposition drifted from testdata/metrics.prom:\n%s", b.String())
	}
}

// TestLabelValuesEscapedOnce: a label value carrying a quote, a
// backslash or a line feed renders with exactly the exposition
// format's escapes, in the build-info, phase-counter and histogram
// families alike.
func TestLabelValuesEscapedOnce(t *testing.T) {
	cases := []struct{ in, want string }{
		{`r"1`, `"r\"1"`},
		{`a\b`, `"a\\b"`},
		{"x\ny", `"x\ny"`},
	}
	for _, c := range cases {
		var b strings.Builder
		WriteBuildInfo(&b, "x_build_info", "h", BuildInfo{Version: c.in, Commit: c.in, GoVersion: c.in})
		writePhaseCounters(&b, "x_phase_total", "h", map[string]int64{c.in: 1})
		WriteHistograms(&b, "x_seconds", "h", "tier", []string{c.in}, []HistogramSnapshot{pinnedHistogram(0, 1)})
		out := b.String()
		for _, want := range []string{
			"version=" + c.want + ",commit=" + c.want + ",goversion=" + c.want + "}",
			"{phase=" + c.want + "} 1\n",
			"x_seconds_sum{tier=" + c.want + "} 1\n",
			"x_seconds_count{tier=" + c.want + "} ",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("label %q: exposition lacks %s:\n%s", c.in, want, out)
			}
		}
		if n := strings.Count(out, "tier="+c.want+","); n != len(durationBounds)+1 {
			t.Errorf("label %q: %d bucket lines carry tier=%s, want %d", c.in, n, c.want, len(durationBounds)+1)
		}
	}
}

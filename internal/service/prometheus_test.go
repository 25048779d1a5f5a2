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
		AdmissionChecks: 7, AdmissionRejected: 8, AdmissionDowntiered: 9, Coalesced: 10,
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

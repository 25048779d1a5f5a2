package gateway

import (
	"os"
	"strings"
	"testing"

	"distmincut/internal/service"
)

// pinnedLatency is a fixed upstream latency histogram: bucket i holds
// i*scale observations.
func pinnedLatency(scale int64, sum float64) service.HistogramSnapshot {
	h := service.NewHistogram().Snapshot()
	h.SumSeconds = sum
	for i := range h.Counts {
		h.Counts[i] = int64(i) * scale
		h.Count += h.Counts[i]
	}
	return h
}

// TestWritePrometheusPinned holds the gateway exposition byte-identical
// for a fixed snapshot; the replicas are deliberately out of name order
// to show the exposition keeps configuration order.
func TestWritePrometheusPinned(t *testing.T) {
	m := Metrics{
		UptimeSec: 42.125, Replicas: 3, HealthyReplicas: 2, TrackedJobs: 4,
		JobsRouted: 100, JobsFailed: 1, JobsShed: 2, Hedges: 3, HedgeWins: 1,
		PerReplica: []ReplicaMetrics{
			{Name: "r2", State: "healthy", Up: true, Requests: 50, Failures: 1, Retries: 2,
				Ejections: 0, Reinstatements: 0, Replays: 0, UpstreamLatency: pinnedLatency(1, 0.5)},
			{Name: "r0", State: "down", Reason: "probe failed", Up: false, Requests: 20, Failures: 9,
				Retries: 0, Ejections: 1, Reinstatements: 0, Replays: 3, UpstreamLatency: pinnedLatency(0, 0)},
			{Name: "r1", State: "draining", Up: true, Requests: 30, Failures: 0, Retries: 1,
				Ejections: 2, Reinstatements: 2, Replays: 1, UpstreamLatency: pinnedLatency(2, 1.25)},
		},
		Build: service.BuildInfo{Version: "v1.2.3", Commit: "0123456789ab", GoVersion: "go1.24.0"},
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

// TestReplicaLabelEscapedOnce: a replica name carrying a quote, a
// backslash or a line feed renders in the per-replica families with
// exactly the exposition format's escapes.
func TestReplicaLabelEscapedOnce(t *testing.T) {
	cases := []struct{ in, want string }{
		{`r"1`, `{replica="r\"1"}`},
		{`a\b`, `{replica="a\\b"}`},
		{"x\ny", `{replica="x\ny"}`},
	}
	for _, c := range cases {
		var b strings.Builder
		m := Metrics{PerReplica: []ReplicaMetrics{{Name: c.in, Up: true, UpstreamLatency: pinnedLatency(0, 0)}}}
		if err := WritePrometheus(&b, m); err != nil {
			t.Fatal(err)
		}
		if want := "mincutgw_replica_up" + c.want + " 1\n"; !strings.Contains(b.String(), want) {
			t.Errorf("replica %q: exposition lacks %s:\n%s", c.in, want, b.String())
		}
	}
}

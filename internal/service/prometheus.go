package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promMetric is one exposition line group: name, type, help, value.
type promMetric struct {
	name  string
	typ   string // "gauge" or "counter"
	help  string
	value string
}

// PromFloat formats a float sample value for the exposition.
func PromFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// PromInt formats an integer sample value for the exposition.
func PromInt(v int64) string { return strconv.FormatInt(v, 10) }

// WritePrometheus renders a Metrics snapshot in the Prometheus text
// exposition format (version 0.0.4). Counters keep the conventional
// _total suffix; the JSON field names remain available verbatim at
// /metrics?format=json. Every overload outcome is a first-class
// series: jobs_deadline_total, jobs_degraded_total, jobs_shed_total,
// and the three admission decision counters.
func WritePrometheus(w io.Writer, m Metrics) error {
	ms := []promMetric{
		{"mincutd_uptime_seconds", "gauge", "Seconds since the service started.", PromFloat(m.UptimeSec)},
		{"mincutd_pool_size", "gauge", "Worker pool size.", PromInt(int64(m.PoolSize))},
		{"mincutd_queue_depth", "gauge", "Jobs accepted but not yet running.", PromInt(int64(m.QueueDepth))},
		{"mincutd_queue_capacity", "gauge", "Queue capacity (submissions beyond it are shed).", PromInt(int64(m.QueueCapacity))},
		{"mincutd_jobs_running", "gauge", "Executions currently running a protocol.", PromInt(int64(m.Running))},
		{"mincutd_jobs_refining", "gauge", "Tiered executions refining past a published approx answer.", PromInt(int64(m.Refining))},
		{"mincutd_jobs_submitted_total", "counter", "Accepted submissions (bad specs and shed requests excluded).", PromInt(m.Submitted)},
		{"mincutd_jobs_completed_total", "counter", "Executions finished with a result.", PromInt(m.Completed)},
		{"mincutd_jobs_failed_total", "counter", "Executions finished with an error.", PromInt(m.Failed)},
		{"mincutd_jobs_canceled_total", "counter", "Job records canceled by request or drain.", PromInt(m.Canceled)},
		{"mincutd_jobs_deadline_total", "counter", "Job records killed by wall-clock deadline or round budget.", PromInt(m.Deadlined)},
		{"mincutd_jobs_degraded_total", "counter", "Submissions served below their requested tier by queue pressure.", PromInt(m.Degraded)},
		{"mincutd_jobs_shed_total", "counter", "Submissions turned away on a full queue (HTTP 503).", PromInt(m.Shed)},
		{"mincutd_jobs_coalesced_total", "counter", "Submissions coalesced onto an in-flight execution.", PromInt(m.Coalesced)},
		{"mincutd_audit_mismatch_total", "counter", "Results failed by the pre-cache audit: a side that does not weigh its value, or a wrong bracket witness (never cached).", PromInt(m.AuditMismatch)},
		{"mincutd_admission_checks_total", "counter", "Bracket pre-passes run (or cache-served) for admission control.", PromInt(m.AdmissionChecks)},
		{"mincutd_admission_rejected_total", "counter", "Submissions rejected over the admission ceiling (HTTP 429).", PromInt(m.AdmissionRejected)},
		{"mincutd_admission_downtiered_total", "counter", "Over-ceiling submissions served at the approx tier instead.", PromInt(m.AdmissionDowntiered)},
		{"mincutd_cache_hits_total", "counter", "Result-cache hits.", PromInt(m.CacheHits)},
		{"mincutd_cache_misses_total", "counter", "Result-cache misses.", PromInt(m.CacheMisses)},
		{"mincutd_cache_hit_ratio", "gauge", "Cache hits over lookups since start.", PromFloat(m.CacheHitRate)},
		{"mincutd_cache_entries", "gauge", "Entries resident in the result cache.", PromInt(int64(m.CacheEntries))},
		{"mincutd_rounds_total", "counter", "CONGEST rounds simulated by completed executions.", PromInt(m.RoundsTotal)},
		{"mincutd_rounds_per_second", "gauge", "Completed rounds over cumulative pool busy time.", PromFloat(m.RoundsPerSec)},
		{"mincutd_live_rounds", "gauge", "Current round gauges of running executions, summed.", PromInt(m.LiveRounds)},
	}
	var b strings.Builder
	for _, pm := range ms {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", pm.name, pm.help, pm.name, pm.typ, pm.name, pm.value)
	}
	WriteBuildInfo(&b, "mincutd_build_info", "Build identity of the running binary (constant 1).", m.Build)
	writePhaseCounters(&b, "mincutd_phase_rounds_total",
		"CONGEST rounds spent per protocol phase group across completed runs.", m.PhaseRounds)
	writePhaseCounters(&b, "mincutd_phase_messages_total",
		"Messages delivered per protocol phase group across completed runs.", m.PhaseMessages)
	tiers := sortedKeys(m.TierLatency)
	hs := make([]HistogramSnapshot, len(tiers))
	for i, tier := range tiers {
		hs[i] = m.TierLatency[tier]
	}
	WriteHistograms(&b, "mincutd_job_duration_seconds",
		"Job latency from submission to done, per serving tier (cache hits included).", "tier", tiers, hs)
	_, err := io.WriteString(w, b.String())
	return err
}

// labelEscaper escapes the three characters the exposition format
// escapes in a label value: backslash, double quote and line feed.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// EscapeLabel escapes a label value per the exposition format. The
// caller writes the surrounding double quotes itself: quoting the
// escaped value again with %q would escape every backslash twice.
func EscapeLabel(v string) string { return labelEscaper.Replace(v) }

// WriteBuildInfo renders the conventional build-identity gauge: a
// constant 1 whose labels carry the version, commit, and toolchain.
func WriteBuildInfo(b *strings.Builder, name, help string, bi BuildInfo) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	fmt.Fprintf(b, "%s{version=\"%s\",commit=\"%s\",goversion=\"%s\"} 1\n",
		name, EscapeLabel(bi.Version), EscapeLabel(bi.Commit), EscapeLabel(bi.GoVersion))
}

// writePhaseCounters renders one phase-labeled counter family in
// sorted label order (the exposition format forbids interleaving
// families, and sorted keys keep scrapes diffable).
func writePhaseCounters(b *strings.Builder, name, help string, vals map[string]int64) {
	if len(vals) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	for _, k := range sortedKeys(vals) {
		fmt.Fprintf(b, "%s{phase=\"%s\"} %s\n", name, EscapeLabel(k), PromInt(vals[k]))
	}
}

// sortedKeys returns a map's keys in sorted order, which keeps scrapes
// diffable.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteHistograms renders one latency histogram family: cumulative
// le-labeled buckets (with the mandatory +Inf), _sum and _count per
// series, where series i carries label=keys[i] and holds hs[i], in the
// given order.
func WriteHistograms(b *strings.Builder, name, help, label string, keys []string, hs []HistogramSnapshot) {
	if len(keys) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for i, key := range keys {
		h, lv := hs[i], EscapeLabel(key)
		cum := int64(0)
		for j, bound := range h.Bounds {
			cum += h.Counts[j]
			fmt.Fprintf(b, "%s_bucket{%s=\"%s\",le=\"%s\"} %s\n", name, label, lv, PromFloat(bound), PromInt(cum))
		}
		cum += h.Counts[len(h.Bounds)]
		fmt.Fprintf(b, "%s_bucket{%s=\"%s\",le=\"+Inf\"} %s\n", name, label, lv, PromInt(cum))
		fmt.Fprintf(b, "%s_sum{%s=\"%s\"} %s\n", name, label, lv, PromFloat(h.SumSeconds))
		fmt.Fprintf(b, "%s_count{%s=\"%s\"} %s\n", name, label, lv, PromInt(h.Count))
	}
}

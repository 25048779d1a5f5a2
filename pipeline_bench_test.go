package distmincut_test

import (
	"runtime/metrics"
	"sync"
	"testing"

	"distmincut"
	"distmincut/internal/congest"
	"distmincut/internal/graph"
)

// BenchmarkPipelineMillion runs the paper's full exact pipeline —
// BFS overlay, distributed MST, greedy tree packing, 1-respecting
// cuts, the stop rule that certifies exactness, side marking, and cut
// evaluation — at the engine's headline scale: 250k nodes and a
// million edges.
//
// The instance is two 125k-node 8-regular expanders joined by a single
// bridge, so λ = 1 with the bridge as the unique minimum cut. The
// bridge belongs to every spanning tree, so the first packed tree
// always 1-respects the minimum cut, and PracticalTau's λ = 1 case (one
// tree) certifies exactness right after the first tree — the
// benchmark exercises every pipeline stage exactly once instead of
// paying E7's safety-margin tree count, which is what makes full
// MinCut tractable as a repeatable scale proof
// (TestBridgedExpandersPackOneTree checks the single tree at small
// scale). The run rides a reusable engine and
// reports the setup-ns/round-ns split alongside protocol complexity.
var pipelineGraph struct {
	once sync.Once
	g    *graph.Graph
}

// bridgedExpanders builds two half-node deg-regular random expanders
// joined by one unit-weight bridge: n = 2*half nodes, half*deg+1
// edges, planted minimum cut λ = 1.
func bridgedExpanders(half, deg int, seed int64) *graph.Graph {
	g := graph.New(2 * half)
	for side := 0; side < 2; side++ {
		sub := graph.RandomRegular(half, deg, seed+int64(side))
		off := graph.NodeID(side * half)
		for _, e := range sub.Edges() {
			g.MustAddEdge(e.U+off, e.V+off, e.W)
		}
	}
	g.MustAddEdge(0, graph.NodeID(half), 1)
	g.SortAdjacency()
	return g
}

// TestBridgedExpandersPackOneTree: on the benchmark's topology MinCut
// certifies λ = 1 with a single packed tree.
func TestBridgedExpandersPackOneTree(t *testing.T) {
	res, err := distmincut.MinCut(bridgedExpanders(100, 8, 9), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 1 || !res.Exact || res.TreesPacked != 1 {
		t.Fatalf("cut = %d (exact %v) with %d trees, want exact 1 with 1 tree", res.Value, res.Exact, res.TreesPacked)
	}
}

// BenchmarkApproxMillion runs the (1+ε) serving tier on the same
// million-edge topology. This is the scale proof for the sampling reduction's
// multi-level packing: λ = 1 ≤ κ, so level 0's capped exact search
// resolves the cut exactly, and packing.Exact's stop rule with
// PracticalTau's λ=1 single-tree case keeps the packing O(1) trees
// instead of Θ(ln n) full trees.
func BenchmarkApproxMillion(b *testing.B) {
	pipelineGraph.once.Do(func() {
		pipelineGraph.g = bridgedExpanders(125_000, 8, 9)
	})
	g := pipelineGraph.g
	eng := congest.NewEngine(congest.Options{})
	defer eng.Close()
	opts := &distmincut.Options{
		Engine: eng,
	}
	b.ResetTimer()
	var rounds, messages, setup int64
	for i := 0; i < b.N; i++ {
		res, err := distmincut.ApproxMinCut(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Value != 1 || !res.Exact {
			b.Fatalf("cut = %d (exact %v), want exact 1", res.Value, res.Exact)
		}
		rounds = int64(res.Rounds)
		messages = res.Messages
		setup += res.Stats.SetupNanos
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(messages), "messages")
	b.ReportMetric(float64(setup)/float64(b.N), "setup-ns")
	b.ReportMetric((float64(b.Elapsed().Nanoseconds())-float64(setup))/float64(b.N), "round-ns")
}

// BenchmarkBracketMillion runs the bracket serving tier at the same
// scale. The planted bridge disconnects the very first sampled
// skeleton, so the whole protocol is a BFS overlay, one degree
// convergecast and broadcast, and a few sampled floods with echo —
// the few-rounds front tier the service serves ahead of the two
// packing tiers. Nodes a flood does not reach sleep in one receive
// until the verdict arrives, so wakeups track messages, not n per
// round.
func BenchmarkBracketMillion(b *testing.B) {
	pipelineGraph.once.Do(func() {
		pipelineGraph.g = bridgedExpanders(125_000, 8, 9)
	})
	g := pipelineGraph.g
	eng := congest.NewEngine(congest.Options{})
	defer eng.Close()
	opts := &distmincut.Options{
		Engine: eng,
	}
	b.ResetTimer()
	var rounds, messages, setup int64
	for i := 0; i < b.N; i++ {
		res, err := distmincut.BracketMinCut(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Lo > 1 || res.Hi < 1 {
			b.Fatalf("bracket [%d, %d] misses λ = 1", res.Lo, res.Hi)
		}
		rounds = int64(res.Rounds)
		messages = res.Messages
		setup += res.Stats.SetupNanos
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(messages), "messages")
	b.ReportMetric(float64(setup)/float64(b.N), "setup-ns")
	b.ReportMetric((float64(b.Elapsed().Nanoseconds())-float64(setup))/float64(b.N), "round-ns")
}

func BenchmarkPipelineMillion(b *testing.B) {
	pipelineGraph.once.Do(func() {
		pipelineGraph.g = bridgedExpanders(125_000, 8, 9)
	})
	g := pipelineGraph.g
	eng := congest.NewEngine(congest.Options{})
	defer eng.Close()
	opts := &distmincut.Options{
		Engine: eng,
	}
	b.ResetTimer()
	var rounds, messages, setup int64
	for i := 0; i < b.N; i++ {
		res, err := distmincut.MinCut(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Value != 1 || !res.Exact {
			b.Fatalf("cut = %d (exact %v), want exact 1", res.Value, res.Exact)
		}
		rounds = int64(res.Rounds)
		messages = res.Messages
		setup += res.Stats.SetupNanos
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(messages), "messages")
	b.ReportMetric(float64(setup)/float64(b.N), "setup-ns")
	b.ReportMetric((float64(b.Elapsed().Nanoseconds())-float64(setup))/float64(b.N), "round-ns")
}

// BenchmarkApprox4096 is the mid-scale memory row: the (1+ε) tier on a
// 4096-node bridged 8-regular expander, the shape of perfbench's
// tiered-wide workload, on a warm engine. Besides B/op and allocs/op it
// reports peak-live-MB, the largest live heap the garbage collector saw
// during the timed runs (runtime/metrics /gc/heap/live:bytes, read at
// every round barrier by an Observer). The runtime lets the heap grow
// to about twice the live heap, so process RSS follows it at about 2x.
func BenchmarkApprox4096(b *testing.B) {
	g := bridgedExpanders(2048, 8, 9)
	eng := congest.NewEngine(congest.Options{})
	defer eng.Close()
	peak := &liveHeapPeak{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	opts := &distmincut.Options{Engine: eng, Observer: peak}
	run := func() *distmincut.Result {
		res, err := distmincut.ApproxMinCut(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Value != 1 {
			b.Fatalf("cut = %d, want 1", res.Value)
		}
		return res
	}
	run() // sizes the engine's slabs, as a serving worker's first job does
	peak.max = 0
	b.ReportAllocs()
	b.ResetTimer()
	var res *distmincut.Result
	for i := 0; i < b.N; i++ {
		res = run()
	}
	b.ReportMetric(float64(res.Rounds), "rounds")
	b.ReportMetric(float64(res.Messages), "messages")
	b.ReportMetric(float64(peak.max)/(1<<20), "peak-live-MB")
}

// liveHeapPeak is a round observer that keeps the largest live heap
// the garbage collector has reported.
type liveHeapPeak struct {
	sample []metrics.Sample
	max    uint64
}

func (p *liveHeapPeak) ObserveRound(congest.RoundRecord) {
	metrics.Read(p.sample)
	p.max = max(p.max, p.sample[0].Value.Uint64())
}

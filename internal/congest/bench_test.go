package congest

import (
	"context"
	"sync"
	"testing"

	"distmincut/internal/graph"
)

// BenchmarkEngine* quantify raw scheduler cost on the generator
// families used throughout the experiment suite: paths (long diameter,
// low degree), random-regular expanders (the paper's hard instances),
// and planted-community graphs. Each iteration simulates one full run;
// allocations per op are dominated by the engine's per-round
// bookkeeping, which is what the round-synchronous scheduler is meant
// to eliminate.

const benchKind uint8 = 0x42

// exchangeProgram makes every node trade `rounds` messages with every
// neighbor — the densest uniform load the model admits, exercising
// deliver, matching, and wake-up on every node every round. All sends
// are staged up front (the per-edge FIFOs pipeline them at one per
// round) and the program allocates only one match closure per node, so
// measured allocations are the engine's, not the workload's.
func exchangeProgram(rounds int) func(*Node) {
	return func(nd *Node) {
		match := MatchKind(benchKind)
		for r := 0; r < rounds; r++ {
			nd.SendAll(Message{Kind: benchKind, Tag: uint32(r)})
		}
		for i := rounds * nd.Degree(); i > 0; i-- {
			nd.Recv(match)
		}
	}
}

// pingPongProgram keeps only nodes a and b active: they bounce a token
// for the given number of hops while every other node exits
// immediately. On large graphs this isolates the engine's per-round
// overhead that is independent of traffic volume.
func pingPongProgram(a, b graph.NodeID, hops int) func(*Node) {
	return func(nd *Node) {
		if nd.ID() != a && nd.ID() != b {
			return
		}
		peer := b
		if nd.ID() == b {
			peer = a
		}
		p := nd.PortTo(peer)
		match := MatchKind(benchKind)
		for i := 0; i < hops; i++ {
			if nd.ID() == a {
				nd.Send(p, Message{Kind: benchKind})
				nd.Recv(match)
			} else {
				nd.Recv(match)
				nd.Send(p, Message{Kind: benchKind})
			}
		}
	}
}

func benchRun(b *testing.B, g *graph.Graph, opts Options, program func(*Node)) {
	b.Helper()
	b.ReportAllocs()
	var delivered int64
	for i := 0; i < b.N; i++ {
		stats, err := Run(context.Background(), g, opts, program)
		if err != nil {
			b.Fatal(err)
		}
		delivered = stats.Delivered
	}
	if delivered > 0 {
		b.ReportMetric(float64(delivered)*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	}
}

// benchRunSplit drives a reusable engine and splits the wall time into
// the setup-ns and round-ns metrics (per op): setup is the engine's own
// Stats.SetupNanos measurement, round-ns everything else. The split
// lets the regression gate watch steady-state round cost without the
// co-tenant noise of slab allocation and kernel page zeroing that
// dominates cold setups at the million scale (see the PR 3 addendum in
// CHANGES.md).
func benchRunSplit(b *testing.B, g *graph.Graph, opts Options, program func(*Node)) {
	b.Helper()
	b.ReportAllocs()
	eng := NewEngine(opts)
	defer eng.Close()
	var delivered, setupTotal int64
	for i := 0; i < b.N; i++ {
		stats, err := eng.Run(context.Background(), g, program)
		if err != nil {
			b.Fatal(err)
		}
		delivered = stats.Delivered
		setupTotal += stats.SetupNanos
	}
	b.ReportMetric(float64(setupTotal)/float64(b.N), "setup-ns")
	b.ReportMetric((float64(b.Elapsed().Nanoseconds())-float64(setupTotal))/float64(b.N), "round-ns")
	if delivered > 0 {
		b.ReportMetric(float64(delivered)*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	}
}

// Graphs are built once per process: generator cost (especially the
// configuration-model expander) must not pollute engine timings.
var benchGraphs struct {
	once      sync.Once
	path      *graph.Graph
	expander  *graph.Graph
	community *graph.Graph
}

func benchSetup() {
	benchGraphs.once.Do(func() {
		benchGraphs.path = graph.Path(4096)
		benchGraphs.expander = graph.RandomRegular(10_000, 8, 1)
		benchGraphs.community = graph.PlantedCut(512, 512, 8, 0.02, 1)
	})
}

func BenchmarkEnginePathExchange(b *testing.B) {
	benchSetup()
	benchRun(b, benchGraphs.path, Options{}, exchangeProgram(8))
}

func BenchmarkEngineExpanderExchange(b *testing.B) {
	benchSetup()
	benchRun(b, benchGraphs.expander, Options{}, exchangeProgram(8))
}

func BenchmarkEngineCommunityExchange(b *testing.B) {
	benchSetup()
	benchRun(b, benchGraphs.community, Options{}, exchangeProgram(8))
}

// BenchmarkEngineExpanderSparse: two nodes chatting on a 10k-node
// expander. The old scheduler paid O(n) per round to find them; the
// sender registry makes this proportional to actual traffic.
func BenchmarkEngineExpanderSparse(b *testing.B) {
	benchSetup()
	g := benchGraphs.expander
	peer := g.Adj(0)[0].Peer
	benchRun(b, g, Options{}, pingPongProgram(0, peer, 256))
}

// Million-scale workloads: graphs the seed engine could not simulate at
// interactive speed (the pre-rewrite scheduler scanned all n nodes per
// round and allocated per edge). Graph generation is excluded from
// timings via ResetTimer; graphs build once per process. All three run
// on reusable engines and report the setup-ns/round-ns split, so the
// regression gate can watch steady-state round cost while the
// kernel-bound setup tax (now paid once per engine, not once per run)
// is tracked separately.
var millionGraphs struct {
	once     sync.Once
	path     *graph.Graph // 2^20 nodes, ~1M edges, diameter n-1
	expander *graph.Graph // 250k nodes x 8-regular = 1M edges
}

func millionSetup(b *testing.B) {
	b.Helper()
	millionGraphs.once.Do(func() {
		millionGraphs.path = graph.Path(1 << 20)
		millionGraphs.expander = graph.RandomRegular(250_000, 8, 1)
	})
	b.ResetTimer()
}

// BenchmarkEngineMillionPathReuse is the engine-reuse headline: one
// warm engine runs the sparse million-node ping-pong twice per
// iteration, and the cold (first ever) and warm (second) setup times
// are reported side by side. Before slab retention and pooled
// activation the first run paid 7-25 s of goroutine stacks and page
// zeroing; the warm run's setup is the dirty-region reset only. Runs first so the
// slabs it releases seed the pools for the other million workloads.
func BenchmarkEngineMillionPathReuse(b *testing.B) {
	millionSetup(b)
	g := millionGraphs.path
	program := pingPongProgram(0, g.Adj(0)[0].Peer, 64)
	eng := NewEngine(Options{})
	defer eng.Close()
	var cold, warm int64
	for i := 0; i < b.N; i++ {
		s1, err := eng.Run(context.Background(), g, program)
		if err != nil {
			b.Fatal(err)
		}
		s2, err := eng.Run(context.Background(), g, program)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			cold, warm = s1.SetupNanos, s2.SetupNanos
		}
	}
	b.ReportMetric(float64(cold), "setup-cold-ns")
	b.ReportMetric(float64(warm), "setup-warm-ns")
}

// BenchmarkEngineMillionExpanderExchange: a full exchange round on a
// million-edge 8-regular expander — 2M messages delivered per run with
// every node active, the headline scaling workload.
func BenchmarkEngineMillionExpanderExchange(b *testing.B) {
	millionSetup(b)
	benchRunSplit(b, millionGraphs.expander,
		Options{},
		exchangeProgram(1))
}

// BenchmarkEngineMillionPathSparse: two adjacent nodes chatting on a
// million-node path — the per-run cost floor for million-node
// simulations. A coroutine is bound to a node only while its program
// runs, so the 2^20 immediate-exit programs recycle a handful of
// pooled coroutines instead of faulting in one stack per node, and
// setup-ns isolates what per-run setup remains.
func BenchmarkEngineMillionPathSparse(b *testing.B) {
	millionSetup(b)
	g := millionGraphs.path
	benchRunSplit(b, g, Options{},
		pingPongProgram(0, g.Adj(0)[0].Peer, 64))
}

// Package harness defines the experiment suite that regenerates every
// claim of the paper as a measured table. The paper, a brief
// announcement, has no empirical tables of its own, so each
// theoretical claim and the single figure maps to one experiment:
//
//   - E1 (E1Correctness): Theorem 2.1 — every node's distributed C(v↓)
//     matches the sequential oracle of Lemma 2.2 exactly.
//   - E2 (E2Scaling): the Theorem 2.1 pipeline takes Õ(√n + D) rounds,
//     not rounds linear in n.
//   - E3 (E3Exact): the main theorem — the exact minimum cut in
//     Õ((√n + D)·poly(λ)) rounds.
//   - E4 (E4Approx): (1+ε)-approximation quality and cost against ε.
//   - E5 (E5Baselines): the §1 comparison — this (1+ε) algorithm
//     against Ghaffari–Kuhn (2+ε, emulated) and Su's concurrent work.
//   - E6 (E6Diameter): both terms of √n + D are real — fix n, grow D.
//   - E7 (E7Packing): Thorup's theorem in practice — trees packed until
//     one 1-respects a minimum cut, against the practical and
//     theoretical τ bounds, and until the loads also prove it (the
//     exact search's duality stop).
//   - E8 (E8Figure1): the paper's only figure — fragments, merging
//     nodes and T'_F for the Figure-1 tree, plus the O(√n) structural
//     bounds on random trees.
//   - E9 (E9Ablation): the fragment size cap s, swept around the
//     paper's √n.
//
// cmd/bench renders all tables; bench_test.go exposes one testing.B
// benchmark per experiment.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/mst"
	"distmincut/internal/proto"
	"distmincut/internal/respect"
)

// Table is one rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	b.WriteString("\n")
	return b.String()
}

// Config scopes an experiment run.
type Config struct {
	// Quick shrinks workloads for use inside tests and benchmarks.
	Quick bool
	// Seed drives every randomized workload and protocol.
	Seed int64
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// enginePool recycles reusable CONGEST engines across the hundreds of
// sequential runs one experiment performs (and across experiments,
// which run concurrently on the RunAll pool): an engine checked back in
// keeps its slabs warm, so the next run of similar scale skips setup.
// Engines dropped by the GC release nothing the process needs — their
// slabs simply stop circulating.
var enginePool sync.Pool

// runSim is congest.Run, with default options, on a pooled, reusable
// engine.
func runSim(g *graph.Graph, program func(*congest.Node)) (*congest.Stats, error) {
	var eng *congest.Engine
	if v := enginePool.Get(); v != nil {
		eng = v.(*congest.Engine)
	} else {
		eng = congest.NewEngine(congest.Options{})
	}
	stats, err := eng.Run(context.Background(), g, program)
	enginePool.Put(eng)
	return stats, err
}

// RunAll executes every experiment and returns the tables in their
// fixed E1..E9 order. The experiments are mutually independent (each
// builds its own graphs and engines from cfg's seed), so they run
// concurrently on a worker pool bounded by GOMAXPROCS; the result order
// — and every table's contents — is deterministic regardless of how the
// pool schedules them.
func RunAll(cfg Config) []*Table {
	experiments := []func(Config) *Table{
		E1Correctness,
		E2Scaling,
		E3Exact,
		E4Approx,
		E5Baselines,
		E6Diameter,
		E7Packing,
		E8Figure1,
		E9Ablation,
	}
	tables := make([]*Table, len(experiments))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(experiments) {
		workers = len(experiments)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				tables[i] = experiments[i](cfg)
			}
		}()
	}
	for i := range experiments {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return tables
}

// pipelineOnce runs BFS + distributed MST + Theorem 2.1 once and
// returns the run stats, the best 1-respecting cut, and the per-node
// parents (for oracle verification).
func pipelineOnce(g *graph.Graph, seed int64) (*congest.Stats, int64, []graph.NodeID, error) {
	var mu sync.Mutex
	parents := make([]graph.NodeID, g.N())
	var best int64
	stats, err := runSim(g, func(nd *congest.Node) {
		tags := new(proto.Tags)
		bfs := proto.BuildBFS(nd, 0, tags)
		res := mst.Run(nd, bfs, nil, 0, seed, tags)
		out := respect.Run(nd, respect.FromMST(res, bfs), tags)
		mu.Lock()
		defer mu.Unlock()
		if res.ParentPort >= 0 {
			parents[nd.ID()] = nd.Peer(res.ParentPort)
		} else {
			parents[nd.ID()] = -1
		}
		best = out.Best
	})
	if err != nil {
		return nil, 0, nil, err
	}
	return stats, best, parents, nil
}

// runPipelineCollect runs the Theorem 2.1 pipeline and hands every
// node's C(v↓) to fn (called under a lock).
func runPipelineCollect(g *graph.Graph, seed int64, fn func(v graph.NodeID, cut int64)) error {
	var mu sync.Mutex
	_, err := runSim(g, func(nd *congest.Node) {
		tags := new(proto.Tags)
		bfs := proto.BuildBFS(nd, 0, tags)
		res := mst.Run(nd, bfs, nil, 0, seed, tags)
		out := respect.Run(nd, respect.FromMST(res, bfs), tags)
		mu.Lock()
		fn(nd.ID(), out.CutBelow)
		mu.Unlock()
	})
	return err
}

func itoa(v int64) string { return fmt.Sprintf("%d", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

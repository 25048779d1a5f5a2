package distmincut_test

import (
	"context"
	"math"
	"testing"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/harness"
	"distmincut/internal/mst"
	"distmincut/internal/packing"
	"distmincut/internal/proto"
	"distmincut/internal/respect"
)

// One benchmark per experiment (E1–E9, listed in the internal/harness
// package doc). Each
// regenerates its table in quick mode; per-run CONGEST metrics are
// reported through b.ReportMetric so `go test -bench` output carries
// the reproduction's headline numbers, not just wall time.

func benchTable(b *testing.B, fn func(harness.Config) *harness.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t := fn(harness.Config{Quick: true, Seed: 3})
		if len(t.Rows) == 0 {
			b.Fatalf("%s produced no rows", t.ID)
		}
	}
}

func BenchmarkE1OneRespect(b *testing.B) { benchTable(b, harness.E1Correctness) }
func BenchmarkE3Exact(b *testing.B)      { benchTable(b, harness.E3Exact) }
func BenchmarkE4Approx(b *testing.B)     { benchTable(b, harness.E4Approx) }
func BenchmarkE5Baselines(b *testing.B)  { benchTable(b, harness.E5Baselines) }
func BenchmarkE6Diameter(b *testing.B)   { benchTable(b, harness.E6Diameter) }
func BenchmarkE7Packing(b *testing.B)    { benchTable(b, harness.E7Packing) }
func BenchmarkE8Figure1(b *testing.B)    { benchTable(b, harness.E8Figure1) }
func BenchmarkE9Ablation(b *testing.B)   { benchTable(b, harness.E9Ablation) }

// BenchmarkE2Scaling reports the headline complexity measurement
// directly: rounds and rounds/(√n+D) of the full Theorem 2.1 pipeline
// on a 16x16 torus.
func BenchmarkE2Scaling(b *testing.B) {
	g := graph.Torus(16, 16)
	d := graph.Diameter(g)
	var rounds, messages int64
	for i := 0; i < b.N; i++ {
		stats, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
			tags := new(proto.Tags)
			bfs := proto.BuildBFS(nd, 0, tags)
			res := mst.Run(nd, bfs, nil, 0, 3, tags)
			respect.Run(nd, respect.FromMST(res, bfs), tags)
		})
		if err != nil {
			b.Fatal(err)
		}
		rounds = int64(stats.Rounds)
		messages = stats.Delivered
	}
	norm := math.Sqrt(float64(g.N())) + float64(d)
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(rounds)/norm, "rounds/(√n+D)")
	b.ReportMetric(float64(messages), "messages")
}

// BenchmarkTheorem21PerTree measures one MST+1-respect iteration (the
// packing's inner loop) on a mid-size sparse graph.
func BenchmarkTheorem21PerTree(b *testing.B) {
	g := graph.GNP(256, 0.04, 5)
	var rounds int64
	for i := 0; i < b.N; i++ {
		stats, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
			tags := new(proto.Tags)
			bfs := proto.BuildBFS(nd, 0, tags)
			packing.Pack(nd, bfs, packing.Options{Seed: 4}, tags,
				func(r *packing.Result) bool { return r.Trees >= 1 })
		})
		if err != nil {
			b.Fatal(err)
		}
		rounds = int64(stats.Rounds)
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkEngineThroughput measures raw simulator speed: delivered
// messages per second on an all-to-all exchange.
func BenchmarkEngineThroughput(b *testing.B) {
	g := graph.Complete(64)
	b.ReportAllocs()
	var delivered int64
	for i := 0; i < b.N; i++ {
		stats, err := congest.Run(context.Background(), g, congest.Options{}, func(nd *congest.Node) {
			const kind = 0x7f
			for r := 0; r < 20; r++ {
				nd.SendAll(congest.Message{Kind: kind, Tag: uint32(r)})
				for j := 0; j < nd.Degree(); j++ {
					nd.Recv(congest.MatchKindTag(kind, uint32(r)))
				}
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		delivered += stats.Delivered
	}
	b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "msgs/s")
}

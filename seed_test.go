package distmincut

import (
	"fmt"
	"testing"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
)

// seedRun is what one entry-point call yields: the seed-independent
// outcome and the golden fingerprint (Stats, Marks, Value, Side).
type seedRun struct {
	outcome string
	golden  goldenRecord
}

// seedEntryPoints are the entry points whose only randomness is the
// MST merge coin.
var seedEntryPoints = map[string]func(g *graph.Graph, o *Options) (seedRun, error){
	"MinCut": func(g *graph.Graph, o *Options) (seedRun, error) {
		r, err := MinCut(g, o)
		if err != nil {
			return seedRun{}, err
		}
		return seedRun{
			outcome: fmt.Sprintf("value=%d side=%v trees=%d exact=%v certificate=%q", r.Value, r.Side, r.TreesPacked, r.Exact, r.Certificate),
			golden:  goldenOf(r.Stats, r.Value, r.Side),
		}, nil
	},
	"OneRespectingCut": func(g *graph.Graph, o *Options) (seedRun, error) {
		r, perNode, err := OneRespectingCut(g, o)
		if err != nil {
			return seedRun{}, err
		}
		return seedRun{
			outcome: fmt.Sprintf("value=%d side=%v trees=%d exact=%v certificate=%q perNode=%v", r.Value, r.Side, r.TreesPacked, r.Exact, r.Certificate, perNode),
			golden:  goldenOf(r.Stats, r.Value, r.Side),
		}, nil
	},
}

// TestSeedContract pins what Options.Seed may change. The seed reaches
// the MST merge coin and nothing else on these entry points, so across
// seeds 1–4 the cut, its side, the trees packed and the certificate
// stay fixed while the round count moves for some pair of seeds (the
// seed does reach the coin). The engine holds no state of its own
// across runs, so one warm engine run with seeds 1, 2, 1, 3 reproduces
// each fresh run's Stats and Marks exactly.
func TestSeedContract(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"planted":      graph.PlantedCut(14, 14, 2, 0.5, 3),
		"torus":        graph.Torus(5, 6),
		"weighted-gnp": graph.AssignWeights(graph.GNP(30, 0.25, 4), 1, 9, 5),
	}
	for gname, g := range graphs {
		for ename, run := range seedEntryPoints {
			t.Run(ename+"/"+gname, func(t *testing.T) {
				fresh := map[int64]seedRun{}
				for seed := int64(1); seed <= 4; seed++ {
					r, err := run(g, &Options{Seed: seed})
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if seed > 1 && r.outcome != fresh[1].outcome {
						t.Fatalf("seed %d changed the outcome:\n  got:  %s\n  seed 1: %s", seed, r.outcome, fresh[1].outcome)
					}
					fresh[seed] = r
				}
				moved := false
				for seed := int64(2); seed <= 4; seed++ {
					moved = moved || fresh[seed].golden.Rounds != fresh[1].golden.Rounds
				}
				if !moved {
					t.Errorf("seeds 1–4 all took %d rounds; the seed does not reach the MST coin", fresh[1].golden.Rounds)
				}
				eng := congest.NewEngine(congest.Options{})
				defer eng.Close()
				for i, seed := range []int64{1, 2, 1, 3} {
					r, err := run(g, &Options{Seed: seed, Engine: eng})
					if err != nil {
						t.Fatalf("warm run %d (seed %d): %v", i, seed, err)
					}
					if got, want := fmt.Sprint(r.golden), fmt.Sprint(fresh[seed].golden); got != want {
						t.Fatalf("warm run %d (seed %d) differs from a fresh engine:\n  got:  %s\n  want: %s", i, seed, got, want)
					}
				}
			})
		}
	}
}

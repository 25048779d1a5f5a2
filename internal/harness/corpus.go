package harness

import "distmincut/internal/service"

// ServiceCorpus returns a canned request mix for the min-cut service,
// reusing the experiment suite's workload families (the same planted,
// G(n,p), torus, clique-path, and hypercube instances E1–E6 measure)
// as service job specs. cmd/loadgen cycles through it as its request
// stream and the CI smoke test submits from it; the quick variant
// shrinks every instance so a full pass stays in benchmark budgets.
//
// The mix is deliberately cache-friendly: a loadgen pass that wraps
// around the corpus hits the content-addressed cache on every repeat,
// which is the service's intended production profile (identical
// (graph, params, seed) requests are deterministic).
//
// Both variants exercise every serving tier: legacy modes (exact,
// respect, approx) plus the bracket tier and the approximation-first
// tiered flow, so a loadgen pass measures the tier mix the service
// actually offers — including the refining state and the cross-tier
// cache traffic a tiered job's phase keys generate.
func ServiceCorpus(quick bool) []service.JobRequest {
	if quick {
		return []service.JobRequest{
			{Graph: service.GraphSpec{Family: "planted", N1: 16, N2: 16, K: 2, InP: 0.5, Seed: 1}, Mode: "exact"},
			{Graph: service.GraphSpec{Family: "planted", N1: 12, N2: 20, K: 3, InP: 0.5, Seed: 2}, Mode: "respect"},
			{Graph: service.GraphSpec{Family: "gnp", N: 64, P: 0.08, Seed: 1}, Mode: "respect"},
			{Graph: service.GraphSpec{Family: "gnp", N: 48, P: 0.15, Seed: 2,
				Weights: &service.WeightSpec{Lo: 1, Hi: 50, Seed: 3}}, Mode: "respect"},
			{Graph: service.GraphSpec{Family: "torus", Rows: 6, Cols: 7}, Mode: "respect"},
			{Graph: service.GraphSpec{Family: "cliquepath", Cliques: 4, CliqueSize: 8, Bridge: 2}, Mode: "respect"},
			{Graph: service.GraphSpec{Family: "hypercube", Dim: 6}, Mode: "respect"},
			{Graph: service.GraphSpec{Family: "cycle", N: 96}, Mode: "respect"},
			// Serving tiers: a few-rounds bracket, a loose (1+ε), and the
			// approximation-first tiered flow (whose exact phase key
			// collides with the first entry's cache line by design).
			{Graph: service.GraphSpec{Family: "planted", N1: 16, N2: 16, K: 2, InP: 0.5, Seed: 1}, Tier: service.TierBracket},
			{Graph: service.GraphSpec{Family: "hypercube", Dim: 6}, Tier: service.TierApprox, Epsilon: 0.9},
			{Graph: service.GraphSpec{Family: "planted", N1: 16, N2: 16, K: 2, InP: 0.5, Seed: 1}, Tier: service.TierTiered, Epsilon: 0.9},
		}
	}
	return []service.JobRequest{
		// E1 correctness families at experiment scale.
		{Graph: service.GraphSpec{Family: "planted", N1: 24, N2: 24, K: 3, InP: 0.4, Seed: 1}, Mode: "exact"},
		{Graph: service.GraphSpec{Family: "gnp", N: 64, P: 0.08, Seed: 1}, Mode: "exact"},
		{Graph: service.GraphSpec{Family: "gnp", N: 48, P: 0.15, Seed: 2,
			Weights: &service.WeightSpec{Lo: 1, Hi: 50, Seed: 3}}, Mode: "exact"},
		{Graph: service.GraphSpec{Family: "torus", Rows: 6, Cols: 7}, Mode: "exact"},
		{Graph: service.GraphSpec{Family: "cliquepath", Cliques: 4, CliqueSize: 8, Bridge: 2}, Mode: "exact"},
		{Graph: service.GraphSpec{Family: "hypercube", Dim: 6}, Mode: "exact"},
		// E2 scaling shapes under the cheap single-tree bound.
		{Graph: service.GraphSpec{Family: "torus", Rows: 16, Cols: 16}, Mode: "respect"},
		{Graph: service.GraphSpec{Family: "gnp", N: 512, P: 8.0 / 512, Seed: 4}, Mode: "respect"},
		{Graph: service.GraphSpec{Family: "cycle", N: 1024}, Mode: "respect"},
		// E4-style (1+ε) approximations.
		{Graph: service.GraphSpec{Family: "planted", N1: 32, N2: 32, K: 4, InP: 0.3, Seed: 5}, Mode: "approx", Epsilon: 0.5},
		{Graph: service.GraphSpec{Family: "gnp", N: 96, P: 0.1, Seed: 6}, Mode: "approx", Epsilon: 0.25},
		{Graph: service.GraphSpec{Family: "random_regular", N: 64, Degree: 8, Seed: 7}, Mode: "respect"},
		// Serving tiers at experiment scale: brackets on the scaling
		// shapes and an approximation-first tiered job whose exact phase
		// shares a cache key with the first E1 entry.
		{Graph: service.GraphSpec{Family: "torus", Rows: 16, Cols: 16}, Tier: service.TierBracket},
		{Graph: service.GraphSpec{Family: "gnp", N: 512, P: 8.0 / 512, Seed: 4}, Tier: service.TierBracket},
		{Graph: service.GraphSpec{Family: "planted", N1: 24, N2: 24, K: 3, InP: 0.4, Seed: 1}, Tier: service.TierTiered, Epsilon: 0.5},
	}
}

// OverloadCorpus returns a request mix built to saturate a small
// worker pool: mostly expensive exact and tiered runs at sizes where
// packing the trees that certify exactness dominates, with only a thin
// stream of cheap bracket probes. Unlike ServiceCorpus it is deliberately
// cache-hostile across its own length (every entry is a distinct
// canonical request), so a wrap-around pass still queues real protocol
// runs — pair it with loadgen's -unique flag to defeat the cache
// entirely. The CI overload smoke drives this mix at 2× a one-worker
// pool's sustainable rate and asserts the server sheds, degrades, or
// deadlines the excess instead of dying.
func OverloadCorpus() []service.JobRequest {
	return []service.JobRequest{
		{Graph: service.GraphSpec{Family: "planted", N1: 32, N2: 32, K: 3, InP: 0.3, Seed: 11}, Mode: "exact"},
		{Graph: service.GraphSpec{Family: "planted", N1: 40, N2: 24, K: 4, InP: 0.3, Seed: 12}, Mode: "exact"},
		{Graph: service.GraphSpec{Family: "gnp", N: 96, P: 0.08, Seed: 13}, Mode: "exact"},
		{Graph: service.GraphSpec{Family: "planted", N1: 32, N2: 32, K: 3, InP: 0.3, Seed: 14}, Tier: service.TierTiered, Epsilon: 0.5},
		{Graph: service.GraphSpec{Family: "torus", Rows: 10, Cols: 10}, Mode: "exact"},
		{Graph: service.GraphSpec{Family: "planted", N1: 48, N2: 48, K: 3, InP: 0.25, Seed: 15}, Mode: "exact"},
		{Graph: service.GraphSpec{Family: "hypercube", Dim: 7}, Tier: service.TierTiered, Epsilon: 0.9},
		{Graph: service.GraphSpec{Family: "planted", N1: 24, N2: 24, K: 2, InP: 0.4, Seed: 16}, Tier: service.TierBracket},
	}
}

// Package sampling implements Karger's skeleton sampling [Kar94], the
// reduction the paper uses to turn its exact small-λ algorithm into a
// (1+ε)-approximation: sample each unit of edge weight independently
// with probability p = 2^-level; once p·λ ≈ κ(ε) = Θ(log n / ε²),
// every cut of the skeleton is within (1±ε) of p times its true
// weight, so a minimum cut of the skeleton is a (1+O(ε))-minimum cut
// of the original graph and the skeleton's cut value rescales to a
// (1±ε) estimate of λ.
//
// Both endpoints of an edge must sample identically without
// communication; SampleWeight therefore derives its randomness from a
// proto.SeedHash of (seed, packed endpoints, level) — shared
// deterministic randomness, the standard public-coins assumption. The
// hash seeds math/rand's Go 1 value stream, which Go 1 compatibility
// freezes; SampleWeight evaluates that stream in closed form (goStream)
// from the seeding table rngCooked, copied verbatim from the Go
// standard library's src/math/rand/rng.go. Samples are therefore
// exactly those of rand.New(rand.NewSource(...)), at a few multiplies
// per draw and no allocation.
//
// The same sampling machinery also powers the bracket serving tier
// (Bracket): instead of packing trees on a skeleton, it only tests
// skeleton connectivity level by level. A skeleton sampled at rate
// 2^-i stays connected w.h.p. while 2^i ≪ λ/log n and is disconnected
// once 2^i ≫ λ, so the first disconnected level brackets λ within an
// O(log n) factor [GK13 arXiv:1305.5520, Kar99 arXiv:0912.1200] — in a
// handful of rounds, with no tree ever built. The returned upper bound
// is additionally capped by the minimum weighted degree, a certified
// singleton cut that doubles as the bracket's witness.
package sampling

import (
	"math"

	"distmincut/internal/proto"
)

// Kappa returns the skeleton threshold κ(ε, n): descent stops when the
// sampled graph's minimum cut is at most κ. The ln n factor is
// Karger's union bound over cuts; the constant is the practical choice
// validated by experiment E4 (theoretical analyses use larger
// constants; only the measured approximation quality matters here).
func Kappa(eps float64, n int) int64 {
	if eps <= 0 || eps >= 1 {
		eps = 0.5
	}
	k := int64(math.Ceil(math.Log(float64(n)+2)/(eps*eps))) + 3
	return k
}

// edgeSeed derives a deterministic per-(edge, level) RNG seed shared by
// both endpoints.
func edgeSeed(seed int64, uv int64, level int) int64 {
	return int64(proto.SeedHash(seed, uint64(uv), uint64(level)) >> 1)
}

// SampleWeight draws Binomial(w, 2^-level): the skeleton weight of an
// edge of weight w at the given sampling level. Level <= 0 returns w
// unchanged. The draw is identical for both endpoints (it depends only
// on seed, the packed endpoint pair uv, and the level) and runs in
// O(successes+1) expected time via geometric skipping, so heavy edges
// at aggressive levels stay cheap. The result always lies in [0, w].
//
// The uniforms are the Float64 values of
// rand.New(rand.NewSource(edgeSeed(seed, uv, level))), math/rand's
// frozen Go 1 stream, but evaluated in closed form (goStream) from
// rngCooked, the seeding table copied from the Go standard library:
// a draw neither allocates nor builds math/rand's 607-word register.
func SampleWeight(seed int64, uv int64, level int, w int64) int64 {
	if level <= 0 || w <= 0 {
		if w < 0 {
			return 0
		}
		return w
	}
	p := math.Ldexp(1, -level)
	rng := newGoStream(edgeSeed(seed, uv, level))
	// Geometric skipping: jump log(1-U)/log(1-p) failed trials at a time.
	logq := math.Log1p(-p)
	var successes, pos int64
	for {
		skip := math.Floor(math.Log1p(-rng.Float64()) / logq)
		// Range-check the float before converting: at levels near 60
		// the skip can exceed int64, and a wrapped conversion would
		// count successes past w. An in-range skip ends the draw
		// exactly when pos+skip+1 > w.
		if !(skip < 1<<63) || int64(skip) >= w-pos {
			return successes
		}
		pos += int64(skip) + 1
		successes++
	}
}

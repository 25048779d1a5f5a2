package sampling

import (
	"math"
	"strconv"

	"distmincut/internal/congest"
	"distmincut/internal/proto"
)

// Message kinds for the bracket tier (0x78 range; see proto for the
// cross-package kind-range convention).
const (
	kindReach uint8 = 0x78 + iota // sampled-connectivity flood marker
)

// TrialSeed derives the deterministic per-trial seed for one bracket
// connectivity trial. Trials must be independent of each other and of
// the (1+ε) tier's skeleton stream, but identical at both endpoints of
// every edge; hashing (seed, trial) through splitmix64 gives exactly
// that under the same public-coins assumption as SampleWeight.
func TrialSeed(seed int64, trial int) int64 {
	h := splitmix64(uint64(seed) ^ 0xa076_1d64_78bd_642f)
	h = splitmix64(h ^ uint64(trial+1)*0x9e3779b97f4a7c15)
	return int64(h >> 1)
}

// bracketTrials is the number of independent skeletons the bracket
// tests per level. More trials sharpen the lower bound — a level only
// counts as "connected" if every trial's skeleton is connected.
const bracketTrials = 3

// chunkRounds is how many flood rounds a connectivity test runs
// between global termination checks. Larger chunks trade convergecast
// barriers for idle rounds on skeletons of small diameter.
const chunkRounds = 8

// BracketOutcome is the bracket program's result, identical at every
// node.
type BracketOutcome struct {
	// Level is the first sampling level 2^-level at which some trial's
	// skeleton was disconnected (0 if none up to the level cap).
	Level int
	// Lo and Hi bracket the minimum cut, λ ∈ [Lo, Hi]. Hi is the
	// tighter of the certified degree bound (MinDegree, the weight of a
	// real singleton cut) and the sampling-implied bound
	// 2^Level·O(log n); Lo holds with high probability (every cut kept
	// at least one sampled edge in every trial of every level below
	// Level). λ ≤ MinDegree always holds even when Hi is the sampled
	// bound.
	Lo, Hi int64
	// MinDegree is the minimum weighted degree and MinDegreeNode the
	// lowest-ID node attaining it; that singleton is the witness cut
	// behind Hi.
	MinDegree     int64
	MinDegreeNode int64
}

// Bracket is the cheap serving tier: iterated edge sampling at rate
// 2^-i with a connectivity test per level, after the synchronous
// sampler of Karger [arXiv:0912.1200] as used by Ghaffari–Kuhn
// [arXiv:1305.5520]. A cut of weight c keeps no sampled edge at level
// i with probability ≈ e^{-c·2^-i}, so the first level whose skeleton
// disconnects locates log₂ λ to within a constant plus O(log log n):
// λ ≳ 2^(Level-2) w.h.p. (the graph survived every coarser level) and
// λ ≤ min weighted degree always. The program needs no tree packing at
// all — each level is a flood plus a few convergecasts — which is what
// makes it the O(levels · (D + chunkRounds)) front tier ahead of the (1+ε)
// and exact tiers.
//
// Each level tests bracketTrials skeletons drawn from seed's shared
// coins, and the descent stops two levels past the bit length of the
// minimum weighted degree: sampling far below the cheapest singleton
// cut's survival threshold is pointless. All branch decisions are
// functions of globally agreed values (convergecast totals), so every
// node follows the same schedule in lockstep.
func Bracket(nd *congest.Node, bfs *proto.Overlay, seed int64, tags *proto.Tags) BracketOutcome {
	mark := nd.ID() == 0 // node 0 records the phase spans for observability

	// Certified upper bound: the cheapest singleton cut. Two
	// convergecasts — the minimum weighted degree, then the lowest node
	// ID attaining it.
	if mark {
		nd.Mark("begin:mindeg")
	}
	var deg int64
	for p := 0; p < nd.Degree(); p++ {
		deg += nd.EdgeWeight(p)
	}
	minDeg := proto.ConvergeBroadcast(nd, bfs, tags, deg, proto.Min)
	cand := int64(math.MaxInt64)
	if deg == minDeg {
		cand = int64(nd.ID())
	}
	minNode := proto.ConvergeBroadcast(nd, bfs, tags, cand, proto.Min)
	if mark {
		nd.Mark("end:mindeg")
	}

	maxLevel := 2
	for d := minDeg; d > 1; d /= 2 {
		maxLevel++
	}
	if maxLevel > 60 {
		maxLevel = 60
	}

	out := BracketOutcome{MinDegree: minDeg, MinDegreeNode: minNode}
	keep := make([]bool, nd.Degree())
	for level := 1; level <= maxLevel; level++ {
		if mark {
			nd.Mark("begin:bracket:" + strconv.Itoa(level))
		}
		for trial := 0; trial < bracketTrials; trial++ {
			ts := TrialSeed(seed, trial)
			for p := range keep {
				keep[p] = SampleWeight(ts, packPeers(nd, p), level, nd.EdgeWeight(p)) > 0
			}
			if !sampledConnected(nd, bfs, keep, tags) {
				out.Level = level
				break
			}
		}
		if mark {
			nd.Mark("end:bracket:" + strconv.Itoa(level))
		}
		if out.Level != 0 {
			break
		}
	}

	lnN := int64(math.Ceil(math.Log(float64(nd.N()) + 2)))
	switch {
	case out.Level > 0:
		out.Lo = (int64(1) << (out.Level - 1)) / 2
		out.Hi = (int64(1) << out.Level) * 2 * lnN
	default:
		// Never disconnected up to the cap: λ sits near the degree bound.
		out.Lo = (int64(1) << (maxLevel - 1)) / 2
		out.Hi = minDeg
	}
	if out.Hi > minDeg {
		out.Hi = minDeg
	}
	if out.Lo > out.Hi {
		out.Lo = out.Hi
	}
	if out.Lo < 1 {
		out.Lo = 1
	}
	return out
}

// packPeers packs the sorted endpoint pair of the edge at port p into
// one word, so both endpoints derive identical sampling coins.
func packPeers(nd *congest.Node, p int) int64 {
	u, v := int64(nd.ID()), int64(nd.Peer(p))
	if u > v {
		u, v = v, u
	}
	return u<<32 | v
}

// sampledConnected floods reachability from node 0 over the kept edges
// and reports whether every node was reached. The flood advances one
// hop per round for chunkRounds rounds, then a convergecast sums the
// nodes newly reached in the chunk; a chunk that reaches nobody is a
// global fixed point. Every reach message is consumed (reached or
// not), so no traffic is left over in either outcome. Round cost is
// O((ecc/chunkRounds + 1) · (chunkRounds + height)) for the eccentricity of node
// 0's component in the skeleton.
func sampledConnected(nd *congest.Node, bfs *proto.Overlay, keep []bool, tags *proto.Tags) bool {
	tag := tags.Next(1)
	reached := nd.ID() == 0
	newly := int64(0)
	match := congest.MatchKindTag(kindReach, tag)
	announce := func() {
		for p, k := range keep {
			if k {
				nd.Send(p, congest.Message{Kind: kindReach, Tag: tag})
			}
		}
	}
	if reached {
		newly = 1
		announce()
	}
	var total int64
	for {
		for r := 0; r < chunkRounds; r++ {
			nd.Sleep(1)
			for {
				_, _, ok := nd.TryRecv(match)
				if !ok {
					break
				}
				if !reached {
					reached = true
					newly++
					announce()
				}
			}
		}
		sum := proto.ConvergeBroadcast(nd, bfs, tags, newly, proto.Sum)
		total += sum
		newly = 0
		if sum == 0 {
			return total == int64(nd.N())
		}
	}
}

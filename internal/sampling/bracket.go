package sampling

import (
	"math"
	"strconv"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/proto"
)

// Message kinds for the bracket tier (0x78 range; see proto for the
// cross-package kind-range convention).
const (
	kindReach   uint8 = 0x78 + iota // sampled-connectivity flood
	kindEcho                        // flood echo, A = reached nodes in the sender's flood subtree
	kindVerdict                     // connectivity verdict down the BFS tree, A = 1 if connected
)

// TrialSeed derives the deterministic per-trial seed for one bracket
// connectivity trial. Trials must be independent of each other and of
// the (1+ε) tier's skeleton stream, but identical at both endpoints of
// every edge; hashing (seed, trial) through proto.SplitMix64 gives exactly
// that under the same public-coins assumption as SampleWeight.
func TrialSeed(seed int64, trial int) int64 {
	h := proto.SplitMix64(uint64(seed) ^ 0xa076_1d64_78bd_642f)
	h = proto.SplitMix64(h ^ uint64(trial+1)*0x9e3779b97f4a7c15)
	return int64(h >> 1)
}

// bracketTrials is the number of independent skeletons the bracket
// tests per level. More trials sharpen the lower bound — a level only
// counts as "connected" if every trial's skeleton is connected.
const bracketTrials = 3

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
// all: one convergecast and broadcast find the minimum degree, and each
// trial is one flood with echo plus a verdict broadcast, about
// 2·ecc + height rounds (sampledConnected). That is what makes it the
// front tier ahead of the (1+ε) and exact tiers.
//
// Each level tests bracketTrials skeletons drawn from seed's shared
// coins, one after another, and stops at the first disconnected one;
// the descent stops two levels past the bit length of the minimum
// weighted degree: sampling far below the cheapest singleton cut's
// survival threshold is pointless. All branch decisions are functions
// of globally agreed values (the broadcast minimum degree and each
// trial's broadcast verdict), so every node follows the same schedule
// in lockstep.
func Bracket(nd *congest.Node, bfs *proto.Overlay, seed int64, tags *proto.Tags) BracketOutcome {
	mark := nd.ID() == 0 // node 0 records the phase spans for observability

	// Certified upper bound: the cheapest singleton cut. One
	// convergecast of (weighted degree, ID) under lexicographic minimum
	// finds the minimum degree and the lowest ID attaining it; one
	// broadcast shares both.
	if mark {
		nd.Mark("begin:mindeg")
	}
	var deg int64
	for p := 0; p < nd.Degree(); p++ {
		deg += nd.EdgeWeight(p)
	}
	best, _ := proto.ConvergeItem(nd, bfs, tags, proto.Item{A: deg, B: int64(nd.ID())}, proto.MinItem)
	best = proto.BroadcastItem(nd, bfs, tags, best)
	minDeg, minNode := best.A, best.B
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
				keep[p] = SampleWeight(ts, packPeers(nd.ID(), nd.Peer(p)), level, nd.EdgeWeight(p)) > 0
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

// packPeers packs the sorted endpoint pair of an edge into one word,
// so both endpoints derive identical sampling coins.
func packPeers(a, b graph.NodeID) int64 {
	u, v := int64(a), int64(b)
	if u > v {
		u, v = v, u
	}
	return u<<32 | v
}

// sampledConnected floods reachability from node 0 over the kept edges
// and reports whether every node was reached. It is a flood with echo
// (Segall's PIF). A node reached for the first time takes the port of
// its first reach (lowest port, FIFO) as its flood parent and sends
// reach on every other kept port. Each later reach or echo it receives
// settles one of those ports; once all are settled it echoes the number
// of reached nodes in its flood subtree to its parent. When node 0 has
// settled every port it knows the size of its component, and it sends
// the verdict down the BFS overlay. Every other node waits in one Recv
// for this trial's reach or echo or for the verdict from its BFS
// parent, so a node outside node 0's component sleeps until the verdict
// arrives. Each kept edge in node 0's component carries exactly two
// messages, one each way, so no traffic is left over in either outcome.
// Round cost is about 2·ecc + height, for the eccentricity ecc of node
// 0's component in the skeleton and the height of the BFS overlay.
func sampledConnected(nd *congest.Node, bfs *proto.Overlay, keep []bool, tags *proto.Tags) bool {
	tag := tags.Next(1)
	parent := -1      // flood parent port (none at node 0)
	pending := -1     // kept ports not yet settled; -1 while unreached
	count := int64(1) // reached nodes in this node's flood subtree
	flood := func() {
		pending = 0
		for p, k := range keep {
			if k && p != parent {
				pending++
				nd.Send(p, congest.Message{Kind: kindReach, Tag: tag})
			}
		}
	}
	match := func(p int, m congest.Message) bool {
		return m.Tag == tag && (m.Kind == kindReach || m.Kind == kindEcho ||
			m.Kind == kindVerdict && p == bfs.ParentPort)
	}
	var verdict int64
	if nd.ID() == 0 {
		flood()
		for ; pending > 0; pending-- {
			_, m := nd.Recv(match)
			count += m.A // a reach carries 0
		}
		if count == int64(nd.N()) {
			verdict = 1
		}
	} else {
		for {
			p, m := nd.Recv(match)
			if m.Kind == kindVerdict {
				verdict = m.A
				break
			}
			if pending < 0 {
				parent = p
				flood()
			} else {
				pending--
				count += m.A
			}
			if pending == 0 {
				nd.Send(parent, congest.Message{Kind: kindEcho, Tag: tag, A: count})
			}
		}
	}
	for _, c := range bfs.ChildPorts {
		nd.Send(c, congest.Message{Kind: kindVerdict, Tag: tag, A: verdict})
	}
	return verdict == 1
}

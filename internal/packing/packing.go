// Package packing implements Thorup's greedy tree packing [Tho07] and
// the paper's reduction of minimum cut to 1-respecting cuts: pack
// spanning trees T_1, T_2, ... where T_i is the MST with respect to the
// loads induced by T_1..T_{i-1}; by Thorup's theorem, after enough
// trees some T_i shares exactly one edge with a minimum cut, so the
// minimum over trees of the best 1-respecting cut is the minimum cut.
//
// The distributed algorithm packs trees with the Kutten–Peleg MST
// (internal/mst) and sweeps each with the Section-2 algorithm
// (internal/respect), Õ(√n + D) rounds per tree. Pack is the one
// packing loop: it packs one tree at a time until its caller's stop
// rule holds. The MST of tree i+1 reads only the loads, which are final
// once the MST of tree i returns, so Pack runs it on a forked lane of
// every node (congest.Node.Fork) beside the sweep of tree i; only the
// stop rule waits for the sweep. The exact algorithm does not know λ in
// advance, so its rule reads the best cut found so far, and it has two
// stops:
//
//   - the τ rule: stop once τ(min(best, cap)) trees are packed. Since
//     best ≥ λ, that many trees are enough when best ≤ cap, and the
//     answer is exact;
//   - the duality proof: stop once the loads prove λ ≥ best. With
//     M = maxₑ load(e)/w(e), the τ packed trees, each weighted 1/M,
//     put at most w(e) on every edge, and every cut crosses every
//     tree, so λ ≥ τ/M (weak duality, as in Tutte–Nash-Williams).
//     Weights are integers, so τ·w(e) > (c−1)·load(e) on every edge
//     proves λ ≥ c, and c = best makes best = λ.
//
// The ratio M after each tree rides the MST's Part 2 upcast and flood
// (internal/mst), so the proof costs no rounds or messages, and every
// node knows it as soon as the tree's MST returns. A tree whose loads
// already prove λ ≥ best skips its sweep: no tree can beat that cut.
//
// τ policies: Thorup's theoretical bound is Θ(λ⁷ log³ n) trees —
// correct but intractable beyond tiny λ; the driver always uses the
// practical policy of c·λ·ln n trees, validated empirically in
// experiment E7 (see the internal/harness package doc), which also
// tabulates the theoretical bound.
package packing

import (
	"math"
	"slices"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/mst"
	"distmincut/internal/proto"
	"distmincut/internal/respect"
)

// TheoreticalTau is Thorup's packing bound Θ(λ⁷ log³ n) (unit
// constant). Intractable except for λ = 1 on small graphs; provided for
// fidelity and the E7 ablation.
func TheoreticalTau(lambda int64, n int) int {
	ln := math.Log(float64(n) + 2)
	t := math.Pow(float64(lambda), 7) * ln * ln * ln
	if t < 1 {
		return 1
	}
	if t > 1e7 {
		return 1e7
	}
	return int(math.Ceil(t))
}

// PracticalTau is the packing size Exact uses: c·λ·ln n + 3
// trees. Experiment E7 measures the actual number of trees needed until
// some tree 1-respects a minimum cut; this bound exceeds it with a wide
// margin on every workload family in the suite.
//
// λ = 1 is special-cased to a single tree: with integer weights ≥ 1 a
// cut of weight 1 is a single bridge, every spanning tree contains
// every bridge, so the first packed tree already 1-respects any
// weight-1 cut. This keeps a run whose first tree finds a bridge at
// O(1) trees at any scale instead of Θ(ln n).
func PracticalTau(lambda int64, n int) int {
	if lambda <= 1 {
		return 1
	}
	return int(math.Ceil(3*float64(lambda)*math.Log(float64(n)+2))) + 3
}

// Options configures a packing run.
type Options struct {
	// Weight optionally overrides per-port weights (sampled views);
	// weight(p) <= 0 means the edge is absent.
	Weight func(port int) int64
	// SizeCap overrides the fragment size threshold (default √n); used
	// by the E9 ablation.
	SizeCap int
	// Seed drives the MST merge coin (see mst.Run). It moves the round
	// count, never the trees.
	Seed int64
}

// Result is one node's view of a packing run. Scalar fields are
// identical at every node; BestInput/BestOutput are the node's local
// state under the winning tree (used to mark the cut side).
// MaxLoad/MaxLoadWeight is the largest load(e)/w(e) over all edges
// after Trees trees, in lowest terms.
type Result struct {
	Cut                    int64
	CutNode                graph.NodeID
	TreeIndex              int
	Trees                  int
	Connected              bool
	MaxLoad, MaxLoadWeight int64
	BestInput              *respect.Input
	BestOutput             *respect.Output
}

// Proves reports whether the packed trees' loads prove λ ≥ c by weak
// duality: Trees·w(e) > (c−1)·load(e) on every edge, that is
// Trees·MaxLoadWeight > (c−1)·MaxLoad. The products are compared in
// 128 bits. No trees prove nothing.
func (r *Result) Proves(c int64) bool {
	if r.Trees == 0 {
		return false
	}
	return proto.MulLess(max(c-1, 0), r.MaxLoad, int64(r.Trees), r.MaxLoadWeight)
}

// Pack packs trees one at a time, each the MST under the loads of
// those before it, until enough(res) holds, and returns the best
// 1-respecting cut over all of them. enough must read only fields
// every node agrees on (Trees, Cut, the load ratio and so Proves), so
// all nodes stop after the same tree, and it must be monotone in Cut:
// if it holds, it holds for any smaller Cut with the other fields
// unchanged. Every caller's rule is (Exact's, the approximation
// levels', OneRespectingCut's and the Su baseline's): each clause
// either ignores Cut or is a tree count τ(Cut), a bound Cut ≤ c or
// Proves(Cut), all of which a smaller Cut keeps. If the (possibly
// sampled) graph is disconnected, packing aborts with Connected=false
// and Cut untouched.
//
// From the second tree on, once tree i's MST has returned, Pack forks
// tree i+1's MST onto the node's second lane and sweeps tree i on the
// first, unless enough already holds with tree i counted and the cut
// unchanged: by monotonicity the packing then stops after tree i
// whatever its sweep finds. Each lane draws its tags from its own Sub
// block. Tree i+1's loads count only once the stop rule says to go on;
// a stop discards it. A tree whose loads prove λ ≥ Cut skips its sweep.
func Pack(nd *congest.Node, bfs *proto.Overlay, opts Options, tags *proto.Tags, enough func(*Result) bool) *Result {
	res := &Result{Cut: math.MaxInt64, CutNode: -1, TreeIndex: -1, Connected: true}
	if enough(res) {
		return res
	}
	mark := nd.ID() == 0 // node 0 records phase spans for observability
	// loads[p] counts the packed trees that use the edge at port p.
	loads := make([]int64, nd.Degree())
	runMST := func(nd *congest.Node, tags *proto.Tags) *mst.Result {
		if mark {
			nd.Mark("begin:mst")
		}
		mres := mst.RunWeighted(nd, bfs, loads, opts.Weight, opts.SizeCap, opts.Seed, tags)
		if mark {
			nd.Mark("end:mst")
		}
		return mres
	}
	sweep := func(mres *mst.Result, tags *proto.Tags) {
		in := respect.FromMST(mres, bfs)
		in.Weight = opts.Weight
		if mark {
			nd.Mark("begin:respect")
		}
		out := respect.Run(nd, in, tags)
		if mark {
			nd.Mark("end:respect")
		}
		if out.Best < res.Cut {
			res.Cut = out.Best
			res.CutNode = out.BestNode
			res.TreeIndex = res.Trees - 1
			res.BestInput = in
			res.BestOutput = out
		}
	}
	mres := runMST(nd, tags)
	for {
		if !mres.Connected {
			res.Connected = false
			return res
		}
		if mres.ParentPort >= 0 {
			loads[mres.ParentPort]++
		}
		for _, p := range mres.ChildPorts {
			loads[p]++
		}
		res.Trees++
		res.MaxLoad, res.MaxLoadWeight = mres.MaxLoad, mres.MaxLoadWeight
		var next *mst.Result
		switch {
		case res.TreeIndex >= 0 && res.Proves(res.Cut):
			// The loads prove λ ≥ Cut, so this tree's sweep cannot
			// beat the cut.
		case res.TreeIndex < 0 || enough(res):
			sweep(mres, tags)
		default:
			sweepTags, mstTags := tags.Sub(respect.MaxTags), tags.Sub(mst.MaxTags(nd.N()))
			join := nd.Fork(func(nd *congest.Node) { next = runMST(nd, mstTags) })
			sweep(mres, sweepTags)
			join()
		}
		if enough(res) {
			return res
		}
		if next == nil {
			next = runMST(nd, tags)
		}
		mres = next
	}
}

// Exact runs the paper's main algorithm: pack until the packing holds
// PracticalTau(min(best, cap), n) trees, where best is the best cut
// found so far and cap the largest power of two ≤ maxLambda, or until
// the loads prove the answer (Result.Proves). Every cut found is ≥ λ
// and PracticalTau is monotone, so when best ≤ cap the packing holds
// PracticalTau(λ) trees or more: some packed tree 1-respects a minimum
// cut, and best = λ is certified exact. A proof of λ ≥ best with
// best ≤ cap stops sooner and certifies the same answer: Pack replaces
// its best only on a strict improvement, and none can follow. When
// best stays above cap the search gives up after PracticalTau(cap)
// trees, or as soon as the loads prove λ > cap, uncertified. A bridge
// found by the first tree stops the run at once (PracticalTau(1) = 1),
// which keeps λ = 1 instances O(1) trees at any scale.
//
// maxLambda bounds the search (poly(λ) trees are only tractable for
// small λ; larger cuts are handled by the sampling reduction, which
// passes its threshold κ here). Returns the result and whether it is
// certified exact.
func Exact(nd *congest.Node, bfs *proto.Overlay, maxLambda int64, opts Options, tags *proto.Tags) (*Result, bool) {
	lambdaCap := exactCap(maxLambda)
	mark := nd.ID() == 0 // node 0 records the pack span for observability
	if mark {
		nd.Mark("begin:pack")
	}
	res := Pack(nd, bfs, opts, tags, exactEnough(lambdaCap, nd.N()))
	if mark {
		nd.Mark("end:pack")
	}
	return res, res.Connected && res.Cut <= lambdaCap
}

// exactCap is the largest power of two ≤ maxLambda (1 at least).
func exactCap(maxLambda int64) int64 {
	lambdaCap := int64(1)
	for lambdaCap*2 <= maxLambda {
		lambdaCap *= 2
	}
	return lambdaCap
}

// exactEnough is Exact's stop rule on an n-node network. Each clause
// holds for any smaller Cut once it holds, as Pack requires.
func exactEnough(lambdaCap int64, n int) func(*Result) bool {
	return func(r *Result) bool {
		return r.Trees >= PracticalTau(min(r.Cut, lambdaCap), n) ||
			r.Cut <= lambdaCap && r.Proves(r.Cut) ||
			r.Proves(lambdaCap+1)
	}
}

// Message kinds for side marking and evaluation (0x70 range).
const (
	kindSideBit uint8 = 0x70 + iota // side-membership exchange, A = 0/1
)

// MarkSide makes every node learn whether it lies in the winning cut's
// side X = v*↓ (under the winning tree): v* floods its fragment ID and
// F(v*) — O(√n) items — and each node decides membership locally from
// its snapshotted ancestors.
func MarkSide(nd *congest.Node, bfs *proto.Overlay, res *Result, tags *proto.Tags) bool {
	mark := nd.ID() == 0 // node 0 records the phase span for observability
	if mark {
		nd.Mark("begin:markside")
	}
	var mine []proto.Item
	if nd.ID() == res.CutNode {
		mine = append(mine, proto.Item{A: 0, B: res.BestInput.FragID})
		for _, f := range res.BestOutput.FragSet {
			mine = append(mine, proto.Item{A: 1, B: f})
		}
	}
	items := proto.AllGather(nd, bfs, tags, mine)
	if mark {
		nd.Mark("end:markside") // the remaining side decision is local, zero rounds
	}
	// AllGather sorts the items: v*'s fragment (A = 0) comes first, then
	// F(v*) in ID order.
	if _, ok := slices.BinarySearchFunc(items, proto.Item{A: 1, B: res.BestInput.FragID}, proto.CompareItems); ok {
		return true // my whole fragment lies below v*
	}
	if res.BestInput.FragID == items[0].B {
		for _, u := range res.BestOutput.Ancestors {
			if u == res.CutNode {
				return true // v* is my in-fragment ancestor
			}
		}
	}
	return false
}

// EvaluateCut computes the true weight, under the real edge weights of
// the underlying graph, of the cut defined by each node's side bit: one
// neighbor exchange plus one global sum.
func EvaluateCut(nd *congest.Node, bfs *proto.Overlay, inSide bool, tags *proto.Tags) int64 {
	mark := nd.ID() == 0 // node 0 records the phase span for observability
	if mark {
		nd.Mark("begin:evalcut")
	}
	bit := int64(0)
	if inSide {
		bit = 1
	}
	tag := tags.Next(1)
	nd.SendAll(congest.Message{Kind: kindSideBit, Tag: tag, A: bit})
	var crossing int64
	match := congest.MatchKindTag(kindSideBit, tag)
	for i := 0; i < nd.Degree(); i++ {
		p, m := nd.Recv(match)
		if m.A != bit {
			crossing += nd.EdgeWeight(p)
		}
	}
	// Each crossing edge is counted at both endpoints.
	total := proto.ConvergeBroadcast(nd, bfs, tags, crossing, proto.Sum) / 2
	if mark {
		nd.Mark("end:evalcut")
	}
	return total
}

// Package packing implements Thorup's greedy tree packing [Tho07] and
// the paper's reduction of minimum cut to 1-respecting cuts: pack
// spanning trees T_1, T_2, ... where T_i is the MST with respect to the
// loads induced by T_1..T_{i-1}; by Thorup's theorem, after enough
// trees some T_i shares exactly one edge with a minimum cut, so the
// minimum over trees of the best 1-respecting cut is the minimum cut.
//
// The distributed driver packs trees by alternating the Kutten–Peleg
// MST (internal/mst) and the Section-2 algorithm (internal/respect),
// Õ(√n + D) rounds per tree. The exact algorithm does not know λ in
// advance and doubles a guess λ̂: pack τ(λ̂) trees, and stop as soon as
// the best cut found is ≤ λ̂ (then the packing was provably large
// enough, so the answer is exact).
//
// τ policies: Thorup's theoretical bound is Θ(λ⁷ log³ n) trees —
// correct but intractable beyond tiny λ; the driver always uses the
// practical policy of c·λ·ln n trees, validated empirically in
// experiment E7 (see the internal/harness package doc), which also
// tabulates the theoretical bound.
package packing

import (
	"math"

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

// PracticalTau is the packing size ExactDoubling uses: c·λ·ln n + 3
// trees. Experiment E7 measures the actual number of trees needed until
// some tree 1-respects a minimum cut; this bound exceeds it with a wide
// margin on every workload family in the suite.
//
// λ = 1 is special-cased to a single tree: with integer weights ≥ 1 a
// cut of weight 1 is a single bridge, every spanning tree contains
// every bridge, so the first packed tree already 1-respects any
// weight-1 cut. This keeps the λ̂ = 1 doubling guess O(1) trees at any
// scale instead of Θ(ln n).
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
	// StopBelow, if positive, stops packing as soon as the best cut
	// found is <= StopBelow (used by the sampling reduction, which only
	// needs the cut once it is below the skeleton threshold).
	StopBelow int64
	// SizeCap overrides the fragment size threshold (default √n); used
	// by the E9 ablation.
	SizeCap int
}

// Result is one node's view of a packing run. Scalar fields are
// identical at every node; BestInput/BestOutput are the node's local
// state under the winning tree (used to mark the cut side).
type Result struct {
	Cut        int64
	CutNode    graph.NodeID
	TreeIndex  int
	Trees      int
	PerTree    []int64
	Connected  bool
	BestInput  *respect.Input
	BestOutput *respect.Output
}

// Pack packs up to tau trees and returns the best 1-respecting cut
// over all of them. loads carries packing loads across calls (pass a
// fresh map for a standalone run); it is updated in place. If the
// (possibly sampled) graph is disconnected, packing aborts with
// Connected=false and Cut untouched.
func Pack(nd *congest.Node, bfs *proto.Overlay, tau int, loads map[int]int64, opts Options, tags *proto.Tags, prev *Result) *Result {
	res := prev
	if res == nil {
		res = &Result{Cut: math.MaxInt64, CutNode: -1, TreeIndex: -1, Connected: true}
	}
	mark := nd.ID() == 0 // node 0 records phase spans for observability
	for i := 0; i < tau; i++ {
		if mark {
			nd.Mark("begin:mst")
		}
		mres := mst.RunWeighted(nd, bfs, loads, opts.Weight, opts.SizeCap, tags)
		if mark {
			nd.Mark("end:mst")
		}
		if !mres.Connected {
			res.Connected = false
			return res
		}
		if mres.ParentPort >= 0 {
			loads[nd.EdgeID(mres.ParentPort)]++
		}
		for _, p := range mres.ChildPorts {
			loads[nd.EdgeID(p)]++
		}
		in := respect.FromMST(mres, bfs)
		in.Weight = opts.Weight
		if mark {
			nd.Mark("begin:respect")
		}
		out := respect.Run(nd, in, tags)
		if mark {
			nd.Mark("end:respect")
		}
		res.PerTree = append(res.PerTree, out.Best)
		if out.Best < res.Cut {
			res.Cut = out.Best
			res.CutNode = out.BestNode
			res.TreeIndex = res.Trees
			res.BestInput = in
			res.BestOutput = out
		}
		res.Trees++
		if opts.StopBelow > 0 && res.Cut <= opts.StopBelow {
			return res
		}
	}
	return res
}

// ExactDoubling runs the paper's main algorithm: double λ̂ and extend
// the greedy packing until the best cut found is ≤ λ̂ with enough trees
// behind it — at that point the packing provably contained a tree
// 1-respecting a minimum cut, so the result is exact.
//
// Each guess packs with StopBelow = λ̂ so the expensive per-tree work
// halts the moment a candidate ≤ λ̂ appears; certification then tops the
// packing up one tree at a time until it holds PracticalTau(bestCut, n)
// trees. This is sound: bestCut ≥ λ, PracticalTau is monotone, so
// PracticalTau(bestCut) ≥ PracticalTau(λ) trees guarantee some packed
// tree 1-respects a minimum cut and the minimum over packed trees is
// exactly λ. It is also what makes the λ̂ = 1 guess O(1) trees on
// million-edge instances instead of a full Θ(λ̂ ln n) schedule.
//
// maxLambda bounds the search: no guess past it is tried (poly(λ)
// trees are only tractable for small λ; larger cuts are handled by the
// sampling reduction, which passes its threshold κ here). Returns the
// result and whether it is certified exact.
func ExactDoubling(nd *congest.Node, bfs *proto.Overlay, maxLambda int64, opts Options, tags *proto.Tags) (*Result, bool) {
	loads := make(map[int]int64, nd.Degree())
	res := &Result{Cut: math.MaxInt64, CutNode: -1, TreeIndex: -1, Connected: true}
	mark := nd.ID() == 0 // node 0 records the guess/certify spans for observability
	for lambda := int64(1); ; lambda *= 2 {
		target := PracticalTau(lambda, nd.N())
		if extra := target - res.Trees; extra > 0 {
			guess := opts
			if guess.StopBelow <= 0 || lambda < guess.StopBelow {
				guess.StopBelow = lambda
			}
			if mark {
				nd.Mark("begin:pack")
			}
			res = Pack(nd, bfs, extra, loads, guess, tags, res)
			if mark {
				nd.Mark("end:pack")
			}
			if !res.Connected {
				return res, false
			}
		}
		// Top up after an early stop: certification needs
		// PracticalTau(bestCut) trees. One tree per step — the best cut
		// can keep dropping while topping up, which shrinks the
		// requirement.
		certifying := false
		for res.Cut <= lambda && res.Trees < PracticalTau(res.Cut, nd.N()) {
			if mark && !certifying {
				nd.Mark("begin:certify")
			}
			certifying = true
			res = Pack(nd, bfs, 1, loads, opts, tags, res)
			if !res.Connected {
				if mark && certifying {
					nd.Mark("end:certify")
				}
				return res, false
			}
		}
		if mark && certifying {
			nd.Mark("end:certify")
		}
		if res.Cut <= lambda {
			return res, true
		}
		if lambda*2 > maxLambda {
			return res, false
		}
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
		for f := range res.BestOutput.FragSet {
			mine = append(mine, proto.Item{A: 1, B: f})
		}
	}
	items := proto.AllGather(nd, bfs, tags, mine)
	if mark {
		nd.Mark("end:markside") // the remaining side decision is local, zero rounds
	}
	var starFrag int64 = -1
	starSet := make(map[int64]bool, len(items))
	for _, it := range items {
		if it.A == 0 {
			starFrag = it.B
		} else {
			starSet[it.B] = true
		}
	}
	if starSet[res.BestInput.FragID] {
		return true // my whole fragment lies below v*
	}
	if res.BestInput.FragID == starFrag {
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
	for i := 0; i < nd.Degree(); i++ {
		p, m := nd.Recv(congest.MatchKindTag(kindSideBit, tag))
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

// Package distmincut is a library reproduction of
//
//	Danupon Nanongkai, "Brief Announcement: Almost-Tight Approximation
//	Distributed Algorithm for Minimum Cut", PODC 2014 (arXiv:1403.6188).
//
// It computes minimum cuts of weighted graphs with a distributed
// algorithm in the synchronous CONGEST model, simulated faithfully
// (each node runs its own program, one O(log n)-bit message per edge
// per round): the minimum cut λ exactly in Õ((√n + D)·poly(λ)) rounds, and
// a (1+ε)-approximation in Õ((√n + D)/poly(ε)) rounds via Karger
// sampling — improving the (2+ε) of Ghaffari–Kuhn [DISC 2013] and
// matching the Ω̃(√n + D) lower bound of Das Sarma et al. up to
// polylogs.
//
// The pipeline is Thorup's greedy tree packing (internal/packing) over
// a Kutten–Peleg-style distributed MST (internal/mst), with the
// paper's Section-2 algorithm (internal/respect) finding, for each
// packed tree, the minimum cut that 1-respects it in Õ(√n + D) rounds.
//
// Entry points: MinCut (exact, small λ), ApproxMinCut ((1+ε), any λ),
// BracketMinCut (an O(log n)-factor bracket on λ in a handful of
// cheap rounds, the front tier ahead of the other two), and
// OneRespectingCut (Theorem 2.1 on the MST alone). Each runs the whole
// distributed protocol on the in-process CONGEST runtime and reports
// round/message complexity alongside the cut.
package distmincut

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/mst"
	"distmincut/internal/packing"
	"distmincut/internal/proto"
	"distmincut/internal/sampling"
)

// ErrBadInput is returned for graphs on which no cut exists or that
// are not connected.
var ErrBadInput = errors.New("distmincut: need a connected graph with at least 2 nodes")

// maxExactLambda bounds MinCut's search for λ: poly(λ) trees are only
// tractable for small λ, so for cuts beyond it MinCut returns its best
// cut found with Exact=false, after PracticalTau(2^20, n) trees or once
// the loads prove λ > 2^20, and ApproxMinCut is the tool.
const maxExactLambda = 1 << 20

// approxTauMax caps the trees ApproxMinCut packs per sampling level.
const approxTauMax = 32

// Options tune a run. The zero value is ready to use. The packing stops
// at packing.PracticalTau trees or once the loads prove the best cut
// (packing.Result.Proves), MinCut certifies cuts up to 2^20,
// ApproxMinCut's level 0 certifies cuts up to 2^⌊log₂ κ⌋ and its
// sampled levels pack at most 32 trees each, and BracketMinCut tests
// 3 skeletons per level. Every run simulates CONGEST bandwidth: one
// message per edge direction per round, with no option to relax it.
type Options struct {
	// Seed drives the only randomness the protocols use: the MST merge
	// coin and the skeleton samplers hash it, and nothing else reads it
	// (the CONGEST engine has no random state). Through the coin it
	// moves round and message counts but never a cut: MinCut's and
	// OneRespectingCut's Value and Side do not depend on it; the
	// sampled tiers' cuts do. Zero means 1.
	Seed int64
	// Epsilon is the approximation parameter for ApproxMinCut
	// (default 0.5).
	Epsilon float64
	// SizeCap overrides the √n fragment size threshold (E9 ablation).
	SizeCap int
	// MaxRounds overrides the runtime's safety cap: a deterministic
	// round budget, checked per simulation. When a run trips it, the
	// error matches congest.ErrMaxRounds and, through errors.As, a
	// *congest.BudgetError carries the partial progress. Wall-clock
	// limits come from the context passed to the *Context entry points.
	MaxRounds int
	// Engine, when non-nil, runs the protocol on this reusable runtime
	// (congest.NewEngine) instead of a one-shot engine. A warm engine
	// retains its slabs and port tables between runs, so repeated
	// computations — same graph or same scale — skip nearly all of the
	// per-run setup (see congest.Engine). The engine's options are
	// overwritten from this struct for every run. The caller must not
	// use one engine from concurrent computations.
	Engine *congest.Engine
	// Progress, when non-nil, is updated by the runtime at every round
	// boundary with the rounds completed and messages delivered so far,
	// so a concurrent observer (e.g. a job-status endpoint) can sample
	// a running computation. See congest.Progress.
	Progress *congest.Progress
	// Observer, when non-nil, receives one congest.RoundRecord per
	// simulated round at the runtime's round barrier — per-round message
	// and wake counts plus wall-clock delivery timings. Arm a
	// congest.FlightRecorder here to keep a post-mortem tail of the last
	// rounds across deadline or budget aborts. Nil (the default) costs
	// nothing. See congest.Options.Observer.
	Observer congest.Observer
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Epsilon <= 0 || out.Epsilon >= 1 {
		out.Epsilon = 0.5
	}
	return out
}

// Result reports a distributed min-cut computation.
type Result struct {
	// Value is the weight of the returned cut; Side marks one side of
	// it (Side[v] == true means node v is inside X).
	Value int64
	Side  []bool
	// Exact reports whether Value is certified to equal λ (the exact
	// algorithm converged, or the approximate one resolved the cut at
	// sampling level 0).
	Exact bool
	// Certificate names what made an exact Value exact: "duality" when
	// the packed trees' loads prove λ ≥ Value (see packing.Result.Proves),
	// "trees" when the packing reached PracticalTau(Value) trees without
	// that proof. It is "" when Exact is false.
	Certificate string
	// BestNode is the tree node v whose subtree v↓ defines the cut, and
	// TreesPacked how many trees the packing used.
	BestNode    graph.NodeID
	TreesPacked int
	// Levels is the number of sampling levels descended (approx only);
	// SkeletonCut the cut value measured in the final skeleton and
	// SamplingProb its sampling probability.
	Levels       int
	SkeletonCut  int64
	SamplingProb float64
	// Rounds and Messages are the CONGEST complexity of the whole run;
	// Stats has the full accounting.
	Rounds   int
	Messages int64
	Stats    *congest.Stats
}

// runSim executes one node program on every node of g, on the
// caller's reusable engine when Options.Engine is set and on a one-shot
// engine otherwise. ctx stops the run at a round boundary, and the
// error then wraps ctx.Err().
func (o Options) runSim(ctx context.Context, g *graph.Graph, program func(*congest.Node)) (*congest.Stats, error) {
	eo := congest.Options{
		MaxRounds: o.MaxRounds,
		Progress:  o.Progress,
		Observer:  o.Observer,
	}
	if o.Engine != nil {
		o.Engine.SetOptions(eo)
		return o.Engine.Run(ctx, g, program)
	}
	return congest.Run(ctx, g, eo, program)
}

// packOpts configures one packing run: the sampled view weight (nil for
// the graph itself), the fragment size cap and the MST coin's seed.
func (o Options) packOpts(weight func(p int) int64) packing.Options {
	return packing.Options{Weight: weight, SizeCap: o.SizeCap, Seed: o.Seed}
}

// collector gathers per-node outputs under a lock: every node's side
// bit, and the values every node agrees on. Only node 0's packing
// result is kept (every node's carries its own respect state, and
// Result reads only the globally known fields).
type collector struct {
	mu    sync.Mutex
	sides []bool
	pack  *packing.Result // node 0's
	value int64
	// level, trees and exact are ApproxMinCut's descent outcome.
	level, trees int
	exact        bool
}

// record stores node id's side and, from node 0, its packing result.
// The caller holds mu.
func (c *collector) record(id graph.NodeID, side bool, res *packing.Result) {
	c.sides[id] = side
	if id == 0 {
		c.pack = res
	}
}

// certificate names the stop that made an exact packing result exact:
// the duality proof when the loads prove λ ≥ Cut, the tree count
// otherwise.
func certificate(p *packing.Result, exact bool) string {
	switch {
	case !exact:
		return ""
	case p.Proves(p.Cut):
		return "duality"
	default:
		return "trees"
	}
}

// MaxWeight bounds edge weights: the MST key comparison packs loads
// and weights into single words and cross-multiplies them in int64, so
// weights must stay below 2^31.
const MaxWeight = 1<<31 - 1

func validate(g *graph.Graph) error {
	if g.N() < 2 {
		return fmt.Errorf("%w: n = %d", ErrBadInput, g.N())
	}
	if !graph.IsConnected(g) {
		return fmt.Errorf("%w: graph is disconnected", ErrBadInput)
	}
	for _, e := range g.Edges() {
		if e.W > MaxWeight {
			return fmt.Errorf("%w: edge {%d,%d} weight %d exceeds MaxWeight %d",
				ErrBadInput, e.U, e.V, e.W, int64(MaxWeight))
		}
	}
	return nil
}

// MinCut computes the minimum cut exactly with the paper's main
// algorithm (tree packing until enough trees are packed for the best
// cut found, or until the packed trees' loads prove it minimum; see
// Result.Certificate). For cuts beyond 2^20 the result carries
// Exact=false; use ApproxMinCut there.
func MinCut(g *graph.Graph, opts *Options) (*Result, error) {
	return MinCutContext(context.Background(), g, opts)
}

// MinCutContext is MinCut with cancellation: when ctx is canceled the
// distributed run aborts at the next round boundary and the error wraps
// ctx.Err(). A run that completes is unaffected by a later cancel.
func MinCutContext(ctx context.Context, g *graph.Graph, opts *Options) (*Result, error) {
	if err := validate(g); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	col := &collector{sides: make([]bool, g.N())}
	exactAll := true
	stats, err := o.runSim(ctx, g, func(nd *congest.Node) {
		tags := new(proto.Tags)
		bfs := proto.BuildBFS(nd, 0, tags)
		res, exact := packing.Exact(nd, bfs, maxExactLambda, o.packOpts(nil), tags)
		side := packing.MarkSide(nd, bfs, res, tags)
		value := packing.EvaluateCut(nd, bfs, side, tags)
		col.mu.Lock()
		defer col.mu.Unlock()
		col.record(nd.ID(), side, res)
		col.value = value
		if !exact {
			exactAll = false
		}
	})
	if err != nil {
		return nil, err
	}
	p := col.pack
	return &Result{
		Value:       col.value,
		Side:        col.sides,
		Exact:       exactAll,
		Certificate: certificate(p, exactAll),
		BestNode:    p.CutNode,
		TreesPacked: p.Trees,
		Rounds:      stats.Rounds,
		Messages:    stats.Delivered,
		Stats:       stats,
	}, nil
}

// OneRespectingCut runs Theorem 2.1 alone: build the MST distributedly
// and find the minimum cut that 1-respects it, in Õ(√n + D) rounds.
// The returned value is an upper bound on λ (and at most a factor ~2
// above it for MST trees under Thorup packing's first tree); every
// node also learns C(v↓) — the PerNode slice reports them.
func OneRespectingCut(g *graph.Graph, opts *Options) (*Result, []int64, error) {
	return OneRespectingCutContext(context.Background(), g, opts)
}

// OneRespectingCutContext is OneRespectingCut with cancellation; see
// MinCutContext for the contract.
func OneRespectingCutContext(ctx context.Context, g *graph.Graph, opts *Options) (*Result, []int64, error) {
	if err := validate(g); err != nil {
		return nil, nil, err
	}
	o := opts.withDefaults()
	col := &collector{sides: make([]bool, g.N())}
	perNode := make([]int64, g.N())
	stats, err := o.runSim(ctx, g, func(nd *congest.Node) {
		tags := new(proto.Tags)
		bfs := proto.BuildBFS(nd, 0, tags)
		res := packing.Pack(nd, bfs, o.packOpts(nil), tags,
			func(r *packing.Result) bool { return r.Trees >= 1 })
		side := packing.MarkSide(nd, bfs, res, tags)
		col.mu.Lock()
		defer col.mu.Unlock()
		col.record(nd.ID(), side, res)
		perNode[nd.ID()] = res.BestOutput.CutBelow
	})
	if err != nil {
		return nil, nil, err
	}
	p := col.pack
	return &Result{
		Value:       p.Cut,
		Side:        col.sides,
		BestNode:    p.CutNode,
		TreesPacked: 1,
		Rounds:      stats.Rounds,
		Messages:    stats.Delivered,
		Stats:       stats,
	}, perNode, nil
}

// ApproxMinCut computes a (1+ε)-approximate minimum cut via the
// paper's sampling reduction: descend sampling levels p = 2^-ℓ
// (jumping geometrically using the observed cut) until the skeleton's
// minimum cut falls below κ(ε) = Θ(log n/ε²), find the skeleton's
// minimum cut with the exact machinery, and return that cut's true
// weight in the original graph. If the graph's own cut is at most
// 2^⌊log₂ κ⌋ (the largest power of two ≤ κ) the answer is exact.
func ApproxMinCut(g *graph.Graph, opts *Options) (*Result, error) {
	return ApproxMinCutContext(context.Background(), g, opts)
}

// ApproxMinCutContext is ApproxMinCut with cancellation; see
// MinCutContext for the contract.
func ApproxMinCutContext(ctx context.Context, g *graph.Graph, opts *Options) (*Result, error) {
	if err := validate(g); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	kappa := sampling.Kappa(o.Epsilon, g.N())
	col := &collector{sides: make([]bool, g.N())}
	stats, err := o.runSim(ctx, g, func(nd *congest.Node) {
		tags := new(proto.Tags)
		bfs := proto.BuildBFS(nd, 0, tags)
		approxProgram(nd, bfs, tags, g, kappa, o, col)
	})
	if err != nil {
		return nil, err
	}
	p := col.pack
	exact := col.level == 0 && col.exact
	return &Result{
		Value:        col.value,
		Side:         col.sides,
		Exact:        exact,
		Certificate:  certificate(p, exact),
		BestNode:     p.CutNode,
		TreesPacked:  col.trees,
		Levels:       col.level,
		SkeletonCut:  p.Cut,
		SamplingProb: 1 / float64(int64(1)<<col.level),
		Rounds:       stats.Rounds,
		Messages:     stats.Delivered,
		Stats:        stats,
	}, nil
}

// BracketResult reports a bracket-tier run: a certified upper bound,
// a probabilistic lower bound, and a witness cut for the upper bound.
type BracketResult struct {
	// Lo and Hi bracket the minimum cut, λ ∈ [Lo, Hi]: Hi is the
	// tighter of the certified degree bound (Value, the weight of the
	// witness cut) and the sampling-implied bound 2^Level·O(log n); Lo
	// holds with high probability. λ ≤ Value always holds.
	Lo, Hi int64
	// Value is the weight of the witness cut behind Hi — the minimum
	// weighted degree — and Side marks that cut: the singleton of the
	// lowest-ID node attaining it (Side[v] == true for exactly that v).
	Value int64
	Side  []bool
	// BestNode is the witness node; Level the first sampling level 2^-i
	// whose skeleton disconnected (0 if none before the level cap).
	BestNode graph.NodeID
	Level    int
	// Rounds and Messages are the CONGEST complexity of the whole run;
	// Stats has the full accounting.
	Rounds   int
	Messages int64
	Stats    *congest.Stats
}

// BracketMinCut runs the cheap bracket tier: iterated edge sampling at
// rate 2^-i with a connectivity test per level — the first level whose
// skeleton disconnects brackets λ within an O(log n) factor (after the
// synchronous sampler of Karger [arXiv:0912.1200] as used by
// Ghaffari–Kuhn [arXiv:1305.5520]). No tree packing runs at all: each
// sampled skeleton costs one flood with echo and one broadcast, about
// 2·ecc + D rounds for the eccentricity ecc of node 0 in the skeleton,
// which makes it the front tier ahead of ApproxMinCut and MinCut. See
// sampling.Bracket for the protocol.
func BracketMinCut(g *graph.Graph, opts *Options) (*BracketResult, error) {
	return BracketMinCutContext(context.Background(), g, opts)
}

// BracketMinCutContext is BracketMinCut with cancellation; see
// MinCutContext for the contract.
func BracketMinCutContext(ctx context.Context, g *graph.Graph, opts *Options) (*BracketResult, error) {
	if err := validate(g); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	var mu sync.Mutex
	var out sampling.BracketOutcome
	stats, err := o.runSim(ctx, g, func(nd *congest.Node) {
		tags := new(proto.Tags)
		bfs := proto.BuildBFS(nd, 0, tags)
		res := sampling.Bracket(nd, bfs, o.Seed, tags)
		if nd.ID() == 0 {
			mu.Lock()
			out = res
			mu.Unlock()
		}
	})
	if err != nil {
		return nil, err
	}
	side := make([]bool, g.N())
	side[out.MinDegreeNode] = true
	return &BracketResult{
		Lo:       out.Lo,
		Hi:       out.Hi,
		Value:    out.MinDegree,
		Side:     side,
		BestNode: graph.NodeID(out.MinDegreeNode),
		Level:    out.Level,
		Rounds:   stats.Rounds,
		Messages: stats.Delivered,
		Stats:    stats,
	}, nil
}

// approxProgram is the per-node (1+ε) driver. All branch decisions are
// functions of globally known values, so every node follows the same
// level schedule in lockstep.
func approxProgram(nd *congest.Node, bfs *proto.Overlay, tags *proto.Tags, g *graph.Graph, kappa int64, o Options, col *collector) {
	mark := nd.ID() == 0 // node 0 records the level spans for observability
	weightAt := func(level int) func(p int) int64 {
		if level == 0 {
			return nil
		}
		return func(p int) int64 {
			e := g.Edge(nd.EdgeID(p))
			return sampling.SampleWeight(o.Seed, mst.PackUV(e.U, e.V), level, e.W)
		}
	}
	// packLevel packs one sampling level under its own span, so the
	// trace attributes the descent's cost level by level. It stops at
	// approxTauMax trees, at a skeleton cut ≤ κ, or once the loads prove
	// the best cut is the skeleton's minimum (no later tree can beat it).
	packLevel := func(level int) *packing.Result {
		if mark {
			nd.Mark("begin:level:" + strconv.Itoa(level))
		}
		cur := packing.Pack(nd, bfs, o.packOpts(weightAt(level)), tags,
			func(r *packing.Result) bool { return r.Trees >= approxTauMax || r.Cut <= kappa || r.Proves(r.Cut) })
		if mark {
			nd.Mark("end:level:" + strconv.Itoa(level))
		}
		return cur
	}

	// Level 0: try the exact algorithm with its search capped at κ, so
	// it certifies cuts up to 2^⌊log₂ κ⌋ (the largest power of two ≤ κ).
	// If λ is at most that, this is already the exact answer; once the
	// loads prove λ is above it, level 0 gives up early.
	if mark {
		nd.Mark("begin:level:0")
	}
	res, exact := packing.Exact(nd, bfs, kappa, o.packOpts(nil), tags)
	if mark {
		nd.Mark("end:level:0")
	}
	level, trees := 0, res.Trees
	if !exact {
		// Descend: jump to the level where the observed cut would land
		// near κ, then refine one level at a time.
		prev := res
		prevLevel := 0
		for level < 62 {
			jump := 1
			for c := prev.Cut; c > 2*kappa && jump < 40; c /= 2 {
				jump++
			}
			level = prevLevel + jump
			cur := packLevel(level)
			trees += cur.Trees
			if !cur.Connected {
				// Oversampled: retreat one level and accept it.
				level = prevLevel + jump - 1
				if level == prevLevel {
					res = prev
					level = prevLevel
					break
				}
				cur = packLevel(level)
				trees += cur.Trees
				if !cur.Connected {
					res = prev
					level = prevLevel
					break
				}
				res = cur
				break
			}
			if cur.Cut <= kappa {
				res = cur
				break
			}
			prev, prevLevel = cur, level
		}
	}

	side := packing.MarkSide(nd, bfs, res, tags)
	value := packing.EvaluateCut(nd, bfs, side, tags)
	col.mu.Lock()
	defer col.mu.Unlock()
	col.record(nd.ID(), side, res)
	col.value = value
	col.level, col.trees, col.exact = level, trees, exact
}

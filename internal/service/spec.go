// Package service turns the distmincut library into a concurrent
// min-cut computation service: a bounded worker pool executing jobs at
// several serving tiers, a content-addressed result cache, job states
// with live round/message progress, cancellation, and graceful drain.
// cmd/mincutd exposes it over HTTP/JSON and cmd/loadgen drives it
// under load.
//
// # Serving tiers
//
// Every job names a tier (JobRequest.Tier, the Tier* constants):
// bracket, approx, exact, respect, or tiered. The tiered tier is
// approximation-first serving — one job that runs the (1+ε) protocol,
// publishes that answer to all its waiters as state StateRefining, and
// then runs the genuine exact pipeline to its final result. Each phase
// is cached under the key a direct submission of that tier would use
// (TierKey), so phase results and direct-tier traffic share cache
// entries in both directions.
//
// # Warm workers
//
// Every pool worker owns one reusable CONGEST engine
// (congest.NewEngine) for its whole lifetime. The engine retains its
// slabs and port tables across jobs, so only a worker's first job pays
// engine allocation; every later job of similar scale starts with a
// near-zero setup phase. The effect is observable per job as
// JobView.SetupNs (the run's congest.Stats.SetupNanos) — deliberately
// an incidental field, never part of the canonical cached Result.
//
// # Cache-key canonicalization
//
// A job is identified by the SHA-256 of its canonical request. The
// canonical form is computed by CanonicalRequest: the legacy mode
// field is folded into the tier (they must agree when both are set;
// the default is tier "exact"), defaults are applied (seed 1, epsilon
// 0.5 on the tiers that consume it), epsilon is kept only for the
// approx and tiered tiers and zeroed elsewhere, every field not
// consumed by the request's graph family is zeroed, and an uploaded
// edge list is rewritten to its canonical order (endpoints u < v,
// edges sorted by (u, v)). The normalized request is serialized as
// JSON with a format-version prefix (specVersion, currently v2: the
// canonical form names a tier, never a mode) and hashed. Two requests
// that describe the same computation — whatever field noise, legacy
// mode spelling, or edge order they arrived with — therefore map to
// the same key, and because every computation in this repository is
// deterministic in (graph, params, seed), a key maps to exactly one
// result byte string: repeat submissions are served from the cache
// without re-running the protocol, and GET /v1/results/{key} is
// immutable.
//
// The tier is part of the key: the same graph served at two tiers is
// two cache entries. TierKey re-addresses a canonical request at
// another tier, which is how a tiered job names its phase results with
// the exact same keys direct approx/exact submissions produce.
// Execution concurrency (the worker pool size, GOMAXPROCS) is
// deliberately excluded from the key: the runtime guarantees results
// are identical under any setting, so it is service configuration, not
// job identity.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"distmincut"
	"distmincut/internal/graph"
)

// ErrBadSpec is wrapped by every spec validation failure.
var ErrBadSpec = errors.New("service: bad job spec")

// Limits bounds accepted job specs.
type Limits struct {
	// MaxNodes and MaxEdges cap the size of any accepted graph
	// (generated families are checked analytically before generation,
	// uploads by their edge count).
	MaxNodes int
	MaxEdges int
}

// DefaultLimits are the limits used when a Limits field is zero.
var DefaultLimits = Limits{MaxNodes: 200_000, MaxEdges: 2_000_000}

func (l Limits) withDefaults() Limits {
	if l.MaxNodes <= 0 {
		l.MaxNodes = DefaultLimits.MaxNodes
	}
	if l.MaxEdges <= 0 {
		l.MaxEdges = DefaultLimits.MaxEdges
	}
	return l
}

// WeightSpec randomizes edge weights uniformly in [Lo, Hi] (applied
// after generation, graph.AssignWeights).
type WeightSpec struct {
	Lo   int64 `json:"lo"`
	Hi   int64 `json:"hi"`
	Seed int64 `json:"seed,omitempty"`
}

// GraphSpec names either a generator family with its parameters or an
// uploaded edge list. Exactly the fields consumed by the family may be
// set; canonicalization zeroes the rest so they cannot split the cache.
type GraphSpec struct {
	// Family is one of: gnp, planted, torus, grid, cycle, complete,
	// star, hypercube, random_regular, cliquepath, edges.
	Family string `json:"family"`

	// n (gnp, cycle, complete, star, random_regular; node count for
	// edges uploads).
	N int `json:"n,omitempty"`
	// p (gnp edge probability).
	P float64 `json:"p,omitempty"`
	// Generator seed (gnp, planted, random_regular).
	Seed int64 `json:"seed,omitempty"`

	// planted: cluster sizes, cross edges, in-cluster density.
	N1  int     `json:"n1,omitempty"`
	N2  int     `json:"n2,omitempty"`
	K   int     `json:"k,omitempty"`
	InP float64 `json:"in_p,omitempty"`

	// torus / grid.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`

	// hypercube dimension.
	Dim int `json:"dim,omitempty"`

	// random_regular degree.
	Degree int `json:"degree,omitempty"`

	// cliquepath: cliques of size CliqueSize joined by Bridge edges.
	Cliques    int `json:"cliques,omitempty"`
	CliqueSize int `json:"clique_size,omitempty"`
	Bridge     int `json:"bridge,omitempty"`

	// edges: an uploaded [u, v, w] list on nodes 0..n-1.
	Edges [][3]int64 `json:"edges,omitempty"`

	// Weights, when set, randomizes edge weights after generation.
	Weights *WeightSpec `json:"weights,omitempty"`
}

// Serving tiers, cheapest first. A tier names the computation a job
// runs, and is part of the canonical request — results are
// content-addressed under (spec, tier), so the same graph served at
// two tiers occupies two cache keys.
const (
	// TierBracket is the sampled-connectivity bracket
	// (distmincut.BracketMinCut): λ ∈ [lo, hi] in a handful of rounds.
	TierBracket = "bracket"
	// TierApprox is the (1+ε) sampling reduction
	// (distmincut.ApproxMinCut).
	TierApprox = "approx"
	// TierExact is the certified exact pipeline (distmincut.MinCut).
	TierExact = "exact"
	// TierRespect is Theorem 2.1 alone (distmincut.OneRespectingCut).
	TierRespect = "respect"
	// TierTiered is approximation-first serving: the job publishes its
	// (1+ε) answer as soon as it is available (state "refining") and
	// continues to the exact certified cut. Each phase is cached under
	// the key a direct submission of that tier would get (see TierKey),
	// so both phases are cache-hits on resubmission at any tier.
	TierTiered = "tiered"
)

// JobRequest is one min-cut computation request.
type JobRequest struct {
	Graph GraphSpec `json:"graph"`
	// Mode is the legacy protocol selector: exact (default), approx, or
	// respect. When Tier is set, Mode must be empty or name the same
	// computation.
	Mode string `json:"mode,omitempty"`
	// Tier selects the serving tier: exact (default), approx, bracket,
	// respect, or tiered (approximation first, exact refinement in the
	// background). See the Tier* constants.
	Tier string `json:"tier,omitempty"`
	// Epsilon is the approximation parameter (approx and tiered tiers
	// only; default 0.5).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Seed drives the protocol's randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// DeadlineMS bounds the job's wall-clock time in milliseconds,
	// measured from submission (queue wait included). A job still
	// unfinished at the deadline is killed at the next engine round
	// boundary and reported as StateDeadline with its partial progress.
	// Zero applies the server's default deadline, if one is configured.
	// Deliberately excluded from the canonical request: the deadline
	// changes when an answer is abandoned, never which answer is
	// computed, so it must not split the cache.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// specVersion prefixes the hashed bytes so a format change can never
// collide with keys of the old format. v2: tier-qualified keys — the
// canonical form names a tier instead of a mode.
const specVersion = "mincutd/v2\n"

func bad(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
}

// resolveTier maps the (Mode, Tier) pair onto the canonical tier. Mode
// is the legacy selector; when both are set they must agree.
func resolveTier(req JobRequest) (string, error) {
	var fromMode string
	switch req.Mode {
	case "":
		fromMode = ""
	case "exact":
		fromMode = TierExact
	case "approx":
		fromMode = TierApprox
	case "respect":
		fromMode = TierRespect
	default:
		return "", bad("unknown mode %q", req.Mode)
	}
	switch req.Tier {
	case "":
		if fromMode == "" {
			return TierExact, nil
		}
		return fromMode, nil
	case TierExact, TierApprox, TierRespect:
		if fromMode != "" && fromMode != req.Tier {
			return "", bad("mode %q conflicts with tier %q", req.Mode, req.Tier)
		}
		return req.Tier, nil
	case TierBracket, TierTiered:
		if req.Mode != "" {
			return "", bad("tier %q takes no mode, got %q", req.Tier, req.Mode)
		}
		return req.Tier, nil
	default:
		return "", bad("unknown tier %q", req.Tier)
	}
}

// CanonicalRequest validates req against limits and returns its
// canonical form plus the content-address key (hex SHA-256). See the
// package docs for the canonicalization contract: the canonical form
// names a tier (Mode is folded into it), keeps Epsilon only for the
// tiers that consume it (approx, tiered), and normalizes the graph
// spec.
func CanonicalRequest(req JobRequest, limits Limits) (JobRequest, string, error) {
	limits = limits.withDefaults()
	c := JobRequest{Seed: req.Seed}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if req.DeadlineMS < 0 {
		return c, "", bad("deadline_ms %d is negative", req.DeadlineMS)
	}
	tier, err := resolveTier(req)
	if err != nil {
		return c, "", err
	}
	c.Tier = tier
	if tier == TierApprox || tier == TierTiered {
		c.Epsilon = req.Epsilon
		if c.Epsilon == 0 {
			c.Epsilon = 0.5
		}
		if c.Epsilon <= 0 || c.Epsilon >= 1 || math.IsNaN(c.Epsilon) {
			return c, "", bad("epsilon %v outside (0, 1)", req.Epsilon)
		}
	}
	g, err := canonicalGraph(req.Graph, limits)
	if err != nil {
		return c, "", err
	}
	c.Graph = g
	blob, err := json.Marshal(c)
	if err != nil {
		return c, "", bad("marshal: %v", err)
	}
	sum := sha256.Sum256(append([]byte(specVersion), blob...))
	return c, hex.EncodeToString(sum[:]), nil
}

// TierKey re-addresses an already-canonical request at another tier
// and returns that tier's content-address key. This is how a tiered
// job names its phase results: the approx phase is cached under
// TierKey(canon, TierApprox) and the exact phase under
// TierKey(canon, TierExact) — exactly the keys direct submissions at
// those tiers produce, so results flow between the tiered path and
// direct-tier traffic in both directions.
func TierKey(canon JobRequest, tier string, limits Limits) (string, error) {
	c := canon
	c.Mode = ""
	c.Tier = tier
	_, key, err := CanonicalRequest(c, limits)
	return key, err
}

// canonicalGraph validates and normalizes one graph spec: only the
// fields the family consumes survive.
func canonicalGraph(in GraphSpec, limits Limits) (GraphSpec, error) {
	out := GraphSpec{Family: in.Family}
	// Every dimension is bounded individually by MaxNodes before any
	// product is formed, and products are computed in int64: a request
	// like rows = cols = 2^32 must be rejected on the factor, never
	// allowed to wrap rows*cols past the size check (which would panic
	// deep inside graph construction).
	checkDim := func(name string, v, min int) error {
		if v < min {
			return bad("%s needs %s >= %d, got %d", in.Family, name, min, v)
		}
		if v > limits.MaxNodes {
			return bad("%s %s %d exceeds MaxNodes %d", in.Family, name, v, limits.MaxNodes)
		}
		return nil
	}
	checkN := func(n int) error { return checkDim("n", n, 2) }
	switch in.Family {
	case "gnp":
		if err := checkN(in.N); err != nil {
			return out, err
		}
		if in.P < 0 || in.P > 1 || math.IsNaN(in.P) {
			return out, bad("gnp p %v outside [0, 1]", in.P)
		}
		if exp := in.P * float64(in.N) * float64(in.N-1) / 2; exp > float64(limits.MaxEdges) {
			return out, bad("gnp expects ~%.0f edges, exceeds MaxEdges %d", exp, limits.MaxEdges)
		}
		out.N, out.P, out.Seed = in.N, in.P, in.Seed
	case "planted":
		if err := checkDim("n1", in.N1, 2); err != nil {
			return out, err
		}
		if err := checkDim("n2", in.N2, 2); err != nil {
			return out, err
		}
		if in.N1+in.N2 > limits.MaxNodes {
			return out, bad("planted n %d exceeds MaxNodes %d", in.N1+in.N2, limits.MaxNodes)
		}
		if in.K < 1 || int64(in.K) > int64(in.N1)*int64(in.N2) {
			return out, bad("planted k %d outside [1, n1*n2]", in.K)
		}
		if in.InP < 0 || in.InP > 1 || math.IsNaN(in.InP) {
			return out, bad("planted in_p %v outside [0, 1]", in.InP)
		}
		e1 := in.InP * float64(in.N1) * float64(in.N1-1) / 2
		e2 := in.InP * float64(in.N2) * float64(in.N2-1) / 2
		if exp := e1 + e2 + float64(in.N1+in.N2+in.K); exp > float64(limits.MaxEdges) {
			return out, bad("planted expects ~%.0f edges, exceeds MaxEdges %d", exp, limits.MaxEdges)
		}
		out.N1, out.N2, out.K, out.InP, out.Seed = in.N1, in.N2, in.K, in.InP, in.Seed
	case "torus":
		if err := checkDim("rows", in.Rows, 3); err != nil {
			return out, err
		}
		if err := checkDim("cols", in.Cols, 3); err != nil {
			return out, err
		}
		if n := int64(in.Rows) * int64(in.Cols); n > int64(limits.MaxNodes) || 2*n > int64(limits.MaxEdges) {
			return out, bad("torus %dx%d exceeds limits", in.Rows, in.Cols)
		}
		out.Rows, out.Cols = in.Rows, in.Cols
	case "grid":
		if err := checkDim("rows", in.Rows, 2); err != nil {
			return out, err
		}
		if err := checkDim("cols", in.Cols, 2); err != nil {
			return out, err
		}
		if int64(in.Rows)*int64(in.Cols) > int64(limits.MaxNodes) {
			return out, bad("grid %dx%d exceeds MaxNodes %d", in.Rows, in.Cols, limits.MaxNodes)
		}
		out.Rows, out.Cols = in.Rows, in.Cols
	case "cycle", "star":
		if err := checkN(in.N); err != nil {
			return out, err
		}
		if in.Family == "cycle" && in.N < 3 {
			return out, bad("cycle needs n >= 3, got %d", in.N)
		}
		out.N = in.N
	case "complete":
		if err := checkN(in.N); err != nil {
			return out, err
		}
		if int64(in.N)*int64(in.N-1)/2 > int64(limits.MaxEdges) {
			return out, bad("complete n %d exceeds MaxEdges %d", in.N, limits.MaxEdges)
		}
		out.N = in.N
	case "hypercube":
		if in.Dim < 1 || in.Dim > 30 {
			return out, bad("hypercube dim %d outside [1, 30]", in.Dim)
		}
		if 1<<in.Dim > int64(limits.MaxNodes) || int64(in.Dim)<<(in.Dim-1) > int64(limits.MaxEdges) {
			return out, bad("hypercube dim %d exceeds limits", in.Dim)
		}
		out.Dim = in.Dim
	case "random_regular":
		if err := checkN(in.N); err != nil {
			return out, err
		}
		if in.Degree < 1 || in.Degree >= in.N || in.N*in.Degree%2 != 0 {
			return out, bad("random_regular (n=%d, degree=%d) infeasible", in.N, in.Degree)
		}
		if int64(in.N)*int64(in.Degree)/2 > int64(limits.MaxEdges) {
			return out, bad("random_regular exceeds MaxEdges %d", limits.MaxEdges)
		}
		out.N, out.Degree, out.Seed = in.N, in.Degree, in.Seed
	case "cliquepath":
		if err := checkDim("cliques", in.Cliques, 2); err != nil {
			return out, err
		}
		if err := checkDim("clique_size", in.CliqueSize, 2); err != nil {
			return out, err
		}
		if in.Bridge < 1 || in.Bridge > in.CliqueSize {
			return out, bad("cliquepath bridge %d outside [1, clique_size]", in.Bridge)
		}
		n := int64(in.Cliques) * int64(in.CliqueSize)
		m := n*int64(in.CliqueSize-1)/2 + int64(in.Cliques-1)*int64(in.Bridge)
		if n > int64(limits.MaxNodes) || m > int64(limits.MaxEdges) {
			return out, bad("cliquepath exceeds limits (n=%d, m=%d)", n, m)
		}
		out.Cliques, out.CliqueSize, out.Bridge = in.Cliques, in.CliqueSize, in.Bridge
	case "edges":
		if err := checkN(in.N); err != nil {
			return out, err
		}
		if len(in.Edges) == 0 {
			return out, bad("edges family needs a non-empty edge list")
		}
		if len(in.Edges) > limits.MaxEdges {
			return out, bad("%d edges exceed MaxEdges %d", len(in.Edges), limits.MaxEdges)
		}
		es := make([][3]int64, len(in.Edges))
		seen := make(map[[2]int64]bool, len(in.Edges))
		for i, e := range in.Edges {
			u, v, w := e[0], e[1], e[2]
			if u > v {
				u, v = v, u
			}
			if u < 0 || v >= int64(in.N) {
				return out, bad("edge %d endpoints (%d, %d) outside [0, n)", i, e[0], e[1])
			}
			if u == v {
				return out, bad("edge %d is a self loop at %d", i, u)
			}
			if w < 1 || w > distmincut.MaxWeight {
				return out, bad("edge %d weight %d outside [1, 2^31)", i, w)
			}
			if seen[[2]int64{u, v}] {
				return out, bad("duplicate edge {%d, %d}", u, v)
			}
			seen[[2]int64{u, v}] = true
			es[i] = [3]int64{u, v, w}
		}
		sort.Slice(es, func(i, j int) bool {
			if es[i][0] != es[j][0] {
				return es[i][0] < es[j][0]
			}
			return es[i][1] < es[j][1]
		})
		out.N, out.Edges = in.N, es
	case "":
		return out, bad("missing graph family")
	default:
		return out, bad("unknown graph family %q", in.Family)
	}
	if in.Weights != nil {
		ws := *in.Weights
		if ws.Lo < 1 || ws.Hi < ws.Lo || ws.Hi > distmincut.MaxWeight {
			return out, bad("weights need 1 <= lo <= hi < 2^31, got [%d, %d]", ws.Lo, ws.Hi)
		}
		if ws.Seed == 0 {
			ws.Seed = 1
		}
		out.Weights = &ws
	}
	return out, nil
}

// Build materializes a canonical graph spec. Generated graphs are
// deterministic in the spec, so Build is a pure function of its
// argument — the foundation of the content-addressed cache.
func Build(spec GraphSpec) (*graph.Graph, error) {
	var g *graph.Graph
	switch spec.Family {
	case "gnp":
		g = graph.GNP(spec.N, spec.P, spec.Seed)
	case "planted":
		g = graph.PlantedCut(spec.N1, spec.N2, spec.K, spec.InP, spec.Seed)
	case "torus":
		g = graph.Torus(spec.Rows, spec.Cols)
	case "grid":
		g = graph.Grid(spec.Rows, spec.Cols)
	case "cycle":
		g = graph.Cycle(spec.N)
	case "star":
		g = graph.Star(spec.N)
	case "complete":
		g = graph.Complete(spec.N)
	case "hypercube":
		g = graph.Hypercube(spec.Dim)
	case "random_regular":
		g = graph.RandomRegular(spec.N, spec.Degree, spec.Seed)
	case "cliquepath":
		g = graph.CliquePath(spec.Cliques, spec.CliqueSize, spec.Bridge)
	case "edges":
		g = graph.New(spec.N)
		for _, e := range spec.Edges {
			if _, err := g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), e[2]); err != nil {
				return nil, bad("%v", err)
			}
		}
		g.SortAdjacency()
	default:
		return nil, bad("unknown graph family %q", spec.Family)
	}
	if spec.Weights != nil {
		g = graph.AssignWeights(g, spec.Weights.Lo, spec.Weights.Hi, spec.Weights.Seed)
	}
	if !graph.IsConnected(g) {
		return nil, bad("graph is disconnected (%s family)", spec.Family)
	}
	return g, nil
}

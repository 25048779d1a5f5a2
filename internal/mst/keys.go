// Package mst implements minimum spanning trees with respect to
// load-based edge keys — the engine of Thorup's greedy tree packing —
// both sequentially (Kruskal, the reference) and distributedly in the
// CONGEST model, in the two-part Kutten–Peleg style:
//
//   - Part 1 ("controlled Borůvka"): grow MST fragments with a size cap
//     s (≈√n). Unsaturated fragments propose along their minimum
//     outgoing edge with coin-flip symmetry breaking (a stateless
//     proto.SeedHash coin, so the seed moves the fragments and the
//     round count but never the tree); heads and
//     saturated fragments accept, so merge structures are depth-one
//     stars and fragment trees stay subtrees of the MST. A proposal
//     crosses only the MOE edge, and no message says "no proposal":
//     per-edge FIFO puts a proposal ahead of the proposer's next
//     fragment-ID exchange on that edge, so the receiver answers it in
//     its next exchange loop. Each fragment leaves on its own, once it
//     is saturated (or has no outgoing edge) and every neighbor fragment
//     is saturated too; no global wave ends the part. Terminates w.h.p.
//     in O(log n) iterations with at most n/s fragments.
//   - Part 2 (Kutten–Peleg's pipelined upcast): the smaller-ID end of
//     each outer edge reports it up the BFS tree, and every node merges
//     its own edges with its children's sorted streams, forwarding an
//     edge only when it joins two fragments its earlier forwards do not
//     already connect (a local union-find over fragment IDs). No node
//     forwards more than F−1 edges for F fragments, so node 0 receives
//     the fragment graph's minimum spanning forest in Kruskal order in
//     O(D + √n) rounds. The end markers count the fragments, so node 0
//     knows whether the forest is one tree; it floods the edges, its
//     own fragment and that bit once. On a disconnected view every
//     node returns Connected=false right there; otherwise rooting the
//     tree needs only one adopt wave per fragment.
//
// Neighbor-to-neighbor messages cross only outer edges (far endpoint in
// another fragment, edge present in the view): what would cross an
// inner edge is already known at both ends. Part 1 also stops using an
// outer edge once both its fragments are saturated, since neither can
// change again.
//
// The byproduct is exactly what the paper's Section 2 consumes
// (footnote 1): a partition of the MST into O(√n) fragments of O(√n)
// size (hence diameter), with the fragment tree known to every node.
package mst

import (
	"distmincut/internal/graph"
)

// Key orders edges for MST computation. The primary criterion is the
// relative load load/weight (Thorup's packing key: a weight-w edge
// stands for w parallel unit edges, load spread across them); ties
// break by weight, then by endpoint pair, so keys are globally unique
// and the MST is unique — which lets tests compare the distributed
// tree edge-for-edge against Kruskal.
type Key struct {
	Load int64
	W    int64
	UV   int64 // packed endpoints, see PackUV
}

// PackUV packs an edge's canonical endpoints into one word (each ID
// fits in 31 bits; n is far below 2^31 in any simulated workload).
func PackUV(u, v graph.NodeID) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<31 | int64(v)
}

// UnpackUV reverses PackUV.
func UnpackUV(p int64) (graph.NodeID, graph.NodeID) {
	return graph.NodeID(p >> 31), graph.NodeID(p & ((1 << 31) - 1))
}

// Less reports whether k orders strictly before o. Load ratios are
// compared by cross-multiplication; weights must stay below 2^31 so
// products cannot overflow (graph generators guarantee this).
func (k Key) Less(o Key) bool {
	l, r := k.Load*o.W, o.Load*k.W
	if l != r {
		return l < r
	}
	if k.W != o.W {
		return k.W < o.W
	}
	return k.UV < o.UV
}

// KeyOf builds the key of edge e under the given load.
func KeyOf(e graph.Edge, load int64) Key {
	return Key{Load: load, W: e.W, UV: PackUV(e.U, e.V)}
}

// unionFind is a standard disjoint-set forest with path halving.
type unionFind struct {
	parent []int
}

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// union merges the sets of a and b under the smaller root, so every
// set's root is its minimum element; returns false if already joined.
func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	u.parent[max(ra, rb)] = min(ra, rb)
	return true
}

// Package graph provides the weighted undirected graph substrate used by
// every other package in this repository: construction, validation,
// workload generators, and sequential structural analysis (BFS,
// diameter, connectivity).
//
// Graphs are simple (no parallel edges, no self loops) with positive
// integer weights. Integer weights are what the paper's sampling
// reduction needs: a weight-w edge is treated as w parallel unit edges
// when Karger-sampling (see internal/sampling).
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// NodeID identifies a node. IDs are dense: 0..N-1. The CONGEST model
// assumes unique IDs; using dense integers loses no generality and keeps
// messages at O(log n) bits.
type NodeID int

// Edge is an undirected weighted edge. Endpoints are stored canonically
// with U < V. ID is the index of the edge in Graph.Edges and is stable
// across subgraph views that share the parent's edge list.
type Edge struct {
	U, V NodeID
	W    int64
	ID   int
}

// Other returns the endpoint of e that is not x.
func (e Edge) Other(x NodeID) NodeID {
	if e.U == x {
		return e.V
	}
	return e.U
}

// Half is one directed half of an edge as seen from a node's adjacency
// list. Port p of node u refers to adj[u][p].
type Half struct {
	Peer   NodeID
	W      int64
	EdgeID int
}

// Graph is a weighted undirected simple graph with dense node IDs.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]Half
}

// New returns an empty graph on n nodes.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, adj: make([][]Half, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the edge list. Callers must not mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Adj returns the adjacency list of u. Callers must not mutate it.
// The slice index is the CONGEST "port number" of the edge at u.
func (g *Graph) Adj(u NodeID) []Half { return g.adj[u] }

// Degree returns the number of edges incident to u.
func (g *Graph) Degree(u NodeID) int { return len(g.adj[u]) }

// WeightedDegree returns the sum of weights of edges incident to u
// (delta(u) in the paper).
func (g *Graph) WeightedDegree(u NodeID) int64 {
	var s int64
	for _, h := range g.adj[u] {
		s += h.W
	}
	return s
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() int64 {
	var s int64
	for _, e := range g.edges {
		s += e.W
	}
	return s
}

// HasEdge reports whether an edge {u,v} exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u == v {
		return false
	}
	// Scan the smaller adjacency list.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, h := range g.adj[u] {
		if h.Peer == v {
			return true
		}
	}
	return false
}

// ErrBadEdge is returned by AddEdge for self loops, duplicate edges,
// out-of-range endpoints, or non-positive weights.
var ErrBadEdge = errors.New("graph: invalid edge")

// AddEdge inserts the undirected edge {u,v} with weight w and returns
// its edge ID.
func (g *Graph) AddEdge(u, v NodeID, w int64) (int, error) {
	if u == v {
		return 0, fmt.Errorf("%w: self loop at %d", ErrBadEdge, u)
	}
	if u < 0 || v < 0 || int(u) >= g.n || int(v) >= g.n {
		return 0, fmt.Errorf("%w: endpoint out of range (%d,%d) with n=%d", ErrBadEdge, u, v, g.n)
	}
	if w <= 0 {
		return 0, fmt.Errorf("%w: weight %d must be positive", ErrBadEdge, w)
	}
	if g.HasEdge(u, v) {
		return 0, fmt.Errorf("%w: duplicate edge {%d,%d}", ErrBadEdge, u, v)
	}
	if u > v {
		u, v = v, u
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, W: w, ID: id})
	g.adj[u] = append(g.adj[u], Half{Peer: v, W: w, EdgeID: id})
	g.adj[v] = append(g.adj[v], Half{Peer: u, W: w, EdgeID: id})
	return id, nil
}

// MustAddEdge is AddEdge that panics on error. Generators use it with
// inputs they construct themselves.
func (g *Graph) MustAddEdge(u, v NodeID, w int64) int {
	id, err := g.AddEdge(u, v, w)
	if err != nil {
		panic(err)
	}
	return id
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.edges = make([]Edge, len(g.edges))
	copy(c.edges, g.edges)
	for u := range g.adj {
		c.adj[u] = make([]Half, len(g.adj[u]))
		copy(c.adj[u], g.adj[u])
	}
	return c
}

// Reweight returns a copy of g where edge i has weight ws[i]. Edges with
// ws[i] <= 0 are dropped. Edge IDs are reassigned densely; the returned
// graph also reports, for each new edge, the originating edge ID of g
// via the second return value (new edge ID -> old edge ID).
func (g *Graph) Reweight(ws []int64) (*Graph, []int) {
	if len(ws) != len(g.edges) {
		panic(fmt.Sprintf("graph: Reweight got %d weights for %d edges", len(ws), len(g.edges)))
	}
	c := New(g.n)
	origin := make([]int, 0, len(g.edges))
	for i, e := range g.edges {
		if ws[i] <= 0 {
			continue
		}
		c.MustAddEdge(e.U, e.V, ws[i])
		origin = append(origin, e.ID)
	}
	return c, origin
}

// Validate checks internal consistency: adjacency lists agree with the
// edge list, canonical endpoint order, positive weights, no loops or
// duplicates. It is used by tests and by generators in debug paths.
func (g *Graph) Validate() error {
	if len(g.adj) != g.n {
		return fmt.Errorf("graph: adj has %d rows for n=%d", len(g.adj), g.n)
	}
	deg := make([]int, g.n)
	seen := make(map[[2]NodeID]bool, len(g.edges))
	for i, e := range g.edges {
		if e.ID != i {
			return fmt.Errorf("graph: edge %d has ID %d", i, e.ID)
		}
		if e.U >= e.V {
			return fmt.Errorf("graph: edge %d endpoints not canonical: (%d,%d)", i, e.U, e.V)
		}
		if e.U < 0 || int(e.V) >= g.n {
			return fmt.Errorf("graph: edge %d out of range: (%d,%d)", i, e.U, e.V)
		}
		if e.W <= 0 {
			return fmt.Errorf("graph: edge %d has non-positive weight %d", i, e.W)
		}
		k := [2]NodeID{e.U, e.V}
		if seen[k] {
			return fmt.Errorf("graph: duplicate edge {%d,%d}", e.U, e.V)
		}
		seen[k] = true
		deg[e.U]++
		deg[e.V]++
	}
	for u := 0; u < g.n; u++ {
		if len(g.adj[u]) != deg[u] {
			return fmt.Errorf("graph: node %d adjacency length %d != degree %d", u, len(g.adj[u]), deg[u])
		}
		for p, h := range g.adj[u] {
			e := g.edges[h.EdgeID]
			if e.Other(NodeID(u)) != h.Peer || h.W != e.W {
				return fmt.Errorf("graph: node %d port %d inconsistent with edge %d", u, p, h.EdgeID)
			}
		}
	}
	return nil
}

// PortOf returns the port index at u of the edge with the given ID, or
// -1 if no incident edge has that ID.
func (g *Graph) PortOf(u NodeID, edgeID int) int {
	for p, h := range g.adj[u] {
		if h.EdgeID == edgeID {
			return p
		}
	}
	return -1
}

// SortAdjacency orders every adjacency list by peer ID. Generators call
// it so that port numbering is deterministic regardless of insertion
// order; the CONGEST runtime relies on this for reproducibility.
func (g *Graph) SortAdjacency() {
	for _, a := range g.adj {
		slices.SortFunc(a, func(x, y Half) int { return cmp.Compare(x.Peer, y.Peer) })
	}
}

// CutWeight returns the total weight of edges with exactly one endpoint
// in the set marked true by side. This is the paper's C(X).
func (g *Graph) CutWeight(side []bool) int64 {
	var s int64
	for _, e := range g.edges {
		if side[e.U] != side[e.V] {
			s += e.W
		}
	}
	return s
}

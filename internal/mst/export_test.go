package mst

import "distmincut/internal/graph"

// The inter-fragment edge list in Part 2's flood order, rebuilt from a
// FragTree: the MST fingerprint renders it, and the FragTree tests
// compare it against the edges the tree was built from.

// Edges returns the tree's edges in the order NewFragTree received
// them, each with U its smaller-ID endpoint. It rebuilds the list on
// every call.
func (t FragTree) Edges() []InterEdge {
	edges := make([]InterEdge, max(len(t.frags)-1, 0))
	for _, e := range t.frags {
		if e.edge < 0 {
			continue
		}
		u, v := graph.NodeID(e.inner), graph.NodeID(e.outer)
		fu, fv := int64(e.id), int64(t.frags[e.parent].id)
		if u > v {
			u, v, fu, fv = v, u, fv, fu
		}
		edges[e.edge] = InterEdge{U: u, V: v, FragU: fu, FragV: fv}
	}
	return edges
}

// InterEdges returns the full inter-fragment edge list in key order
// (Part 2's flood order), rebuilt from Frags. Identical at every node.
func (r *Result) InterEdges() []InterEdge { return r.Frags.Edges() }

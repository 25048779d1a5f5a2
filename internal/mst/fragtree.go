package mst

import (
	"cmp"
	"slices"

	"distmincut/internal/graph"
)

// FragTree is the fragment tree T_F of the paper's Step 1 in flat form,
// the copy of it every node holds: one entry per fragment in ID order,
// with its parent, its preorder number and subtree size in T_F, and the
// tree edge that attaches it to its parent. A fragment is found by
// binary search on its ID, and the fragments of a subtree are one
// preorder interval, so F fragments cost one 28F-byte slice and no
// maps.
type FragTree struct {
	frags []fragEntry
}

// fragEntry is one fragment of a FragTree, 28 bytes. Fragment IDs are
// node IDs, and node IDs stay below 2^31 (MST Part 2 packs two fragment
// IDs in one word), so every field fits 32 bits.
type fragEntry struct {
	id     int32
	parent int32 // index of the parent fragment; -1 at the root
	// pre is the preorder number in T_F, children visited in ID order;
	// the subtree is the fragments numbered [pre, pre+size).
	pre, size int32
	// inner is this fragment's endpoint of its attachment edge, the
	// fragment's root r_i; outer is the peer in the parent fragment.
	// Both are -1 at the root fragment.
	inner, outer int32
	// edge is the attachment edge's position in NewFragTree's input; -1
	// at the root fragment.
	edge int32
}

// NewFragTree orients the fragment tree whose edges are inter at
// rootFrag. The edges may come in any order and orientation; a lone
// fragment has none. It is a local computation on global knowledge in
// O(F log F) time and three allocations.
func NewFragTree(inter []InterEdge, rootFrag int64) FragTree {
	ids := make([]int64, 0, 2*len(inter)+1)
	ids = append(ids, rootFrag)
	for _, ie := range inter {
		ids = append(ids, ie.FragU, ie.FragV)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	n := len(ids)
	t := FragTree{frags: make([]fragEntry, n)}
	for i, f := range ids {
		t.frags[i] = fragEntry{id: int32(f), parent: -2, size: 1, inner: -1, outer: -1, edge: -1} // -2: not reached yet
	}

	// The edges at fragment i are at[off[i]:off[i+1]] (indexes into
	// inter); order is the cursor while they are filled in, then the
	// breadth-first order from the root.
	buf := make([]int32, 2*(n+1)+2*len(inter))
	off, order, at := buf[:n+1], buf[n+1:2*(n+1)], buf[2*(n+1):]
	for _, ie := range inter {
		off[t.Index(ie.FragU)+1]++
		off[t.Index(ie.FragV)+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	copy(order, off)
	for e, ie := range inter {
		for _, f := range [2]int64{ie.FragU, ie.FragV} {
			i := t.Index(f)
			at[order[i]] = int32(e)
			order[i]++
		}
	}
	root := int32(t.Index(rootFrag))
	t.frags[root].parent = -1
	order[0] = root
	tail := 1
	for head := 0; head < tail; head++ {
		f := order[head]
		for _, e := range at[off[f]:off[f+1]] {
			ie := inter[e]
			c, inner, outer := int32(t.Index(ie.FragV)), ie.V, ie.U
			if c == f {
				c, inner, outer = int32(t.Index(ie.FragU)), ie.U, ie.V
			}
			if t.frags[c].parent != -2 {
				continue
			}
			t.frags[c].parent, t.frags[c].inner, t.frags[c].outer, t.frags[c].edge = f, int32(inner), int32(outer), e
			order[tail] = c
			tail++
		}
	}
	if tail != n {
		panic("mst: the fragment edges do not form one tree")
	}
	// Subtree sizes, leaves first.
	for k := n - 1; k > 0; k-- {
		c := &t.frags[order[k]]
		t.frags[c.parent].size += c.size
	}
	// Each child's offset below its parent, siblings in ID order (off
	// is reused as the next free offset), then preorder numbers,
	// parents first.
	for i := range off {
		off[i] = 1
	}
	for i := range t.frags {
		if c := &t.frags[i]; c.parent >= 0 {
			c.pre = off[c.parent]
			off[c.parent] += c.size
		}
	}
	for _, i := range order[1:n] {
		t.frags[i].pre += t.frags[t.frags[i].parent].pre
	}
	return t
}

// Len returns the number of fragments.
func (t FragTree) Len() int { return len(t.frags) }

// Index returns the position of fragment f in ID order, or -1 if t
// holds no fragment f.
func (t FragTree) Index(f int64) int {
	i, ok := slices.BinarySearchFunc(t.frags, f, func(e fragEntry, f int64) int { return cmp.Compare(int64(e.id), f) })
	if !ok {
		return -1
	}
	return i
}

// ID returns the ID of the fragment at index i.
func (t FragTree) ID(i int) int64 { return int64(t.frags[i].id) }

// Parent returns the index of the parent of the fragment at index i,
// or -1 at the root fragment.
func (t FragTree) Parent(i int) int { return int(t.frags[i].parent) }

// Attachment returns the edge that attaches the fragment at index i to
// its parent: inner is its endpoint in the fragment (the fragment's
// root), outer the one in the parent fragment. Both are -1 at the root
// fragment.
func (t FragTree) Attachment(i int) (inner, outer graph.NodeID) {
	e := t.frags[i]
	return graph.NodeID(e.inner), graph.NodeID(e.outer)
}

// IsFragRoot reports whether v is the root of a non-root fragment, that
// is, its endpoint of the fragment's attachment edge. O(F).
func (t FragTree) IsFragRoot(v graph.NodeID) bool {
	for _, e := range t.frags {
		if graph.NodeID(e.inner) == v {
			return true
		}
	}
	return false
}

// AppendSubtrees appends to dst, in ID order, every fragment in the
// T_F subtree (inclusive) of some fragment in roots, and returns the
// extended slice. O(F + len(roots) log F).
func (t FragTree) AppendSubtrees(dst []int64, roots []int64) []int64 {
	if len(roots) == 0 {
		return dst
	}
	// open[p] ends up the number of roots whose preorder interval
	// holds preorder number p.
	open := make([]int32, len(t.frags)+1)
	total := 0
	for _, f := range roots {
		e := t.frags[t.Index(f)]
		open[e.pre]++
		open[e.pre+e.size]--
		total += int(e.size)
	}
	for p := 1; p < len(open); p++ {
		open[p] += open[p-1]
	}
	dst = slices.Grow(dst, total)
	for _, e := range t.frags {
		if open[e.pre] > 0 {
			dst = append(dst, int64(e.id))
		}
	}
	return dst
}

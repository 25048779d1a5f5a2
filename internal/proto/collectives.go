package proto

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"

	"distmincut/internal/congest"
)

// Item is one pipelined stream element: four words of O(log n) bits,
// exactly one CONGEST message. Primitives never interpret the words.
type Item struct {
	A, B, C, D int64
}

// CompareItems orders items canonically (lexicographic by word): it
// returns -1, 0 or +1 as x sorts before, with or after y.
func CompareItems(x, y Item) int {
	if c := cmp.Compare(x.A, y.A); c != 0 {
		return c
	}
	if c := cmp.Compare(x.B, y.B); c != 0 {
		return c
	}
	if c := cmp.Compare(x.C, y.C); c != 0 {
		return c
	}
	return cmp.Compare(x.D, y.D)
}

// SortItems sorts items canonically (lexicographic by word).
func SortItems(items []Item) {
	slices.SortFunc(items, CompareItems)
}

// ConvergeBroadcast aggregates one word at the root and broadcasts the
// total back; every node returns the global aggregate. It is one
// ConvergeItem wave up and one BroadcastItem wave down with the word in
// the item's first slot: 2·height rounds, two messages per tree edge.
func ConvergeBroadcast(nd *congest.Node, ov *Overlay, tags *Tags, value int64, combine func(a, b int64) int64) int64 {
	total, _ := ConvergeItem(nd, ov, tags, Item{A: value}, func(a, b Item) Item {
		return Item{A: combine(a.A, b.A)}
	})
	return BroadcastItem(nd, ov, tags, total).A
}

// Sum, Min and Max are the standard combiners.
func Sum(a, b int64) int64 { return a + b }
func Min(a, b int64) int64 {
	if b < a {
		return b
	}
	return a
}
func Max(a, b int64) int64 {
	if b > a {
		return b
	}
	return a
}

// MinItem is the item combiner that keeps the lexicographically
// smaller item, e.g. the lowest (value, node ID) candidate.
func MinItem(a, b Item) Item {
	if CompareItems(b, a) < 0 {
		return b
	}
	return a
}

// MulLess reports whether a·b < c·d for nonnegative words. It compares
// the 128-bit products, so a ratio test by cross-multiplication cannot
// overflow whatever the words' size.
func MulLess(a, b, c, d int64) bool {
	hi1, lo1 := bits.Mul64(uint64(a), uint64(b))
	hi2, lo2 := bits.Mul64(uint64(c), uint64(d))
	return hi1 < hi2 || hi1 == hi2 && lo1 < lo2
}

// Gather streams every node's items to the root (upcast). Items flow up
// concurrently on all tree paths; each edge carries its subtree's items
// followed by one end marker, so the whole gather takes O(height + k)
// rounds for k total items. The root returns all items (unsorted);
// other nodes return nil.
func Gather(nd *congest.Node, ov *Overlay, tags *Tags, mine []Item) []Item {
	tag := tags.Next(1)
	var collected []Item
	if ov.Root {
		collected = append(collected, mine...)
	} else {
		for _, it := range mine {
			nd.Send(ov.ParentPort, congest.Message{Kind: kindItem, Tag: tag, A: it.A, B: it.B, C: it.C, D: it.D})
		}
	}
	match := func(p int, m congest.Message) bool {
		return (m.Kind == kindItem || m.Kind == kindEnd) && m.Tag == tag && isChildPort(ov, p)
	}
	for ended := 0; ended < len(ov.ChildPorts); {
		_, m := nd.Recv(match)
		if m.Kind == kindEnd {
			ended++
			continue
		}
		if ov.Root {
			collected = append(collected, Item{m.A, m.B, m.C, m.D})
		} else {
			m.Kind = kindItem
			nd.Send(ov.ParentPort, m)
		}
	}
	if !ov.Root {
		nd.Send(ov.ParentPort, congest.Message{Kind: kindEnd, Tag: tag})
		return nil
	}
	return collected
}

// Flood streams items from the root down to every node (downcast with
// pipelining): O(height + k) rounds. The root passes the items; every
// node returns the full list in the root's order.
func Flood(nd *congest.Node, ov *Overlay, tags *Tags, items []Item) []Item {
	tag := tags.Next(1)
	if ov.Root {
		for _, c := range ov.ChildPorts {
			for _, it := range items {
				nd.Send(c, congest.Message{Kind: kindItem, Tag: tag, A: it.A, B: it.B, C: it.C, D: it.D})
			}
			nd.Send(c, congest.Message{Kind: kindEnd, Tag: tag})
		}
		return items
	}
	var got []Item
	// One closure for the whole stream: allocating it per item made
	// Flood the pipeline's top allocator at the million scale.
	match := func(p int, m congest.Message) bool {
		return (m.Kind == kindItem || m.Kind == kindEnd) && m.Tag == tag && p == ov.ParentPort
	}
	for {
		_, m := nd.Recv(match)
		if m.Kind == kindEnd {
			break
		}
		got = append(got, Item{m.A, m.B, m.C, m.D})
		for _, c := range ov.ChildPorts {
			nd.Send(c, m)
		}
	}
	for _, c := range ov.ChildPorts {
		nd.Send(c, congest.Message{Kind: kindEnd, Tag: tag})
	}
	return got
}

// AllGather gathers every node's items at the root, sorts them
// canonically, and floods the sorted list back down; every node returns
// the identical global list. O(height + k) rounds. This is the paper's
// recurring "broadcast ... to the whole network" step (inter-fragment
// edges, fragment degrees, merging nodes, T'_F edges), always with
// k = O(√n) items.
func AllGather(nd *congest.Node, ov *Overlay, tags *Tags, mine []Item) []Item {
	all := Gather(nd, ov, tags, mine)
	if ov.Root {
		SortItems(all)
	}
	return Flood(nd, ov, tags, all)
}

// KeyedSum computes, for a globally known sorted key list, the sum over
// all nodes of each node's value for that key, and returns the full
// (key -> total) map at every node. Slot j (the j-th key) is combined
// up the tree in pipelined fashion: a node forwards slot j as soon as
// all children delivered their slot j, so the whole aggregation takes
// O(height + k) rounds, not O(height · k).
//
// This implements the paper's Step 5(i): "count the number of messages
// of the form <v> for every merging node v by computing the sum along
// the breadth-first search tree" — the keys are the merging-node IDs,
// known network-wide after Step 4.
func KeyedSum(nd *congest.Node, ov *Overlay, tags *Tags, keys []int64, mine map[int64]int64) map[int64]int64 {
	tag := tags.Next(1)
	sums := make([]int64, len(keys))
	for j, k := range keys {
		sums[j] = mine[k]
	}
	// Children's slots arrive in order on each port (FIFO); consume
	// slot j from every child, then emit slot j upward. The predicate
	// reads the current (slot, port) through captured variables so one
	// closure serves every receive.
	var slot int64
	var port int
	match := func(p int, m congest.Message) bool {
		return m.Kind == kindSlot && m.Tag == tag && p == port && m.A == slot
	}
	for j := range keys {
		slot = int64(j)
		for _, c := range ov.ChildPorts {
			port = c
			_, m := nd.Recv(match)
			sums[j] += m.B
		}
		if !ov.Root {
			nd.Send(ov.ParentPort, congest.Message{Kind: kindSlot, Tag: tag, A: int64(j), B: sums[j]})
		}
	}
	// Root floods the totals; everyone assembles the map.
	items := make([]Item, 0, len(keys))
	if ov.Root {
		for j, k := range keys {
			items = append(items, Item{A: k, B: sums[j]})
		}
	}
	out := Flood(nd, ov, tags, items)
	res := make(map[int64]int64, len(out))
	for _, it := range out {
		res[it.A] = it.B
	}
	return res
}

func isChildPort(ov *Overlay, p int) bool {
	// ChildPorts is sorted and small; binary search keeps predicate
	// evaluation cheap for the coordinator.
	i := sort.SearchInts(ov.ChildPorts, p)
	return i < len(ov.ChildPorts) && ov.ChildPorts[i] == p
}

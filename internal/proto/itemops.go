package proto

import "distmincut/internal/congest"

// ConvergeItem aggregates a full 4-word item up the overlay with an
// arbitrary associative, commutative combiner (typically "better of
// two candidates"). The root returns (total, true); other nodes return
// their subtree aggregate and false. O(height) rounds.
func ConvergeItem(nd *congest.Node, ov *Overlay, tags *Tags, mine Item, combine func(a, b Item) Item) (Item, bool) {
	tag := tags.Next(1)
	acc := mine
	for range ov.ChildPorts {
		_, m := nd.Recv(func(p int, m congest.Message) bool {
			return m.Kind == kindItem && m.Tag == tag && isChildPort(ov, p)
		})
		acc = combine(acc, Item{m.A, m.B, m.C, m.D})
	}
	if ov.Root {
		return acc, true
	}
	nd.Send(ov.ParentPort, congest.Message{Kind: kindItem, Tag: tag, A: acc.A, B: acc.B, C: acc.C, D: acc.D})
	return acc, false
}

// ConvergeItemVec aggregates a fixed-width vector of items up the
// overlay in one pipelined wave: each slot rides its own tag, every
// edge carries the slots back to back, and a node forwards slot j as
// soon as all children delivered their slot j — so k slots cost
// O(height + k) rounds instead of the k·O(height) of k sequential
// ConvergeItem waves. This is the batching primitive behind the MST
// module's single per-iteration fragment wave (size and minimum
// outgoing edge ride together). combine is applied per slot and must be
// associative and commutative in its item arguments; mine must have the
// same (globally agreed) length at every node. The root returns the
// totals with ok=true; other nodes their subtree partials with false.
func ConvergeItemVec(nd *congest.Node, ov *Overlay, tags *Tags, mine []Item, combine func(slot int, a, b Item) Item) ([]Item, bool) {
	tag := tags.Next(len(mine))
	acc := append([]Item(nil), mine...)
	// One closure for the whole wave; the slot tag advances through the
	// captured variable.
	var tj uint32
	match := func(p int, m congest.Message) bool {
		return m.Kind == kindItem && m.Tag == tj && isChildPort(ov, p)
	}
	for j := range acc {
		tj = tag + uint32(j)
		for range ov.ChildPorts {
			_, m := nd.Recv(match)
			acc[j] = combine(j, acc[j], Item{m.A, m.B, m.C, m.D})
		}
		if !ov.Root {
			it := acc[j]
			nd.Send(ov.ParentPort, congest.Message{Kind: kindItem, Tag: tj, A: it.A, B: it.B, C: it.C, D: it.D})
		}
	}
	return acc, ov.Root
}

// BroadcastItem sends one 4-word item from the root down the overlay;
// every node returns it. O(height) rounds.
func BroadcastItem(nd *congest.Node, ov *Overlay, tags *Tags, it Item) Item {
	tag := tags.Next(1)
	if !ov.Root {
		_, m := nd.Recv(func(p int, m congest.Message) bool {
			return m.Kind == kindItem && m.Tag == tag && p == ov.ParentPort
		})
		it = Item{m.A, m.B, m.C, m.D}
	}
	for _, c := range ov.ChildPorts {
		nd.Send(c, congest.Message{Kind: kindItem, Tag: tag, A: it.A, B: it.B, C: it.C, D: it.D})
	}
	return it
}

package respect

import (
	"math"
	"sort"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/proto"
)

// interChildPorts returns the tree-child ports that cross into child
// fragments (attachment edges), i.e. ChildPorts minus FragChildPorts.
func (r *respectRun) interChildPorts() []int {
	inFrag := make(map[int]bool, len(r.in.FragChildPorts))
	for _, p := range r.in.FragChildPorts {
		inFrag[p] = true
	}
	var out []int
	for _, p := range r.in.ChildPorts {
		if !inFrag[p] {
			out = append(out, p)
		}
	}
	return out
}

// step2a makes every node know F(v): child-fragment lists are upcast
// within each fragment (pipelined, O(√n + frag diameter) rounds), then
// closed under fragment-tree descendants locally. It also records, per
// tree-child direction, whether that direction contains a fragment —
// the raw material for merging-node detection in step 4. Each end
// marker carries its sender's in-fragment subtree size in A, so every
// node learns its own size and, for each fragment child in
// FragChildPorts order, that child's preorder offset below it (1 plus
// the sizes of the earlier children); step 2b hands both down.
func (r *respectRun) step2a(out *Output) {
	nd, in := r.nd, r.in
	tag := r.tags.Next(1)

	// Fragments directly attached below me (local knowledge).
	for _, ie := range in.InterEdges {
		if in.FragParent[ie.FragU] == ie.FragV && ie.V == nd.ID() {
			r.directChildFrags = append(r.directChildFrags, ie.FragU)
		}
		if in.FragParent[ie.FragV] == ie.FragU && ie.U == nd.ID() {
			r.directChildFrags = append(r.directChildFrags, ie.FragV)
		}
	}
	sort.Slice(r.directChildFrags, func(i, j int) bool { return r.directChildFrags[i] < r.directChildFrags[j] })

	// Stream my own direct child fragments up immediately, then relay
	// whatever the fragment children deliver.
	if in.FragParentPort >= 0 {
		for _, f := range r.directChildFrags {
			nd.Send(in.FragParentPort, congest.Message{Kind: kindFragList, Tag: tag, A: f})
		}
	}
	r.childDirHasFrag = make(map[int]bool, len(in.ChildPorts))
	subFrags := append([]int64(nil), r.directChildFrags...)
	pending := len(in.FragChildPorts)
	childAt := make(map[int]int, pending) // fragment child port -> index in FragChildPorts
	for i, p := range in.FragChildPorts {
		childAt[p] = i
	}
	childSize := make([]int64, pending)
	for pending > 0 {
		p, m := nd.Recv(func(p int, m congest.Message) bool {
			_, ok := childAt[p]
			return m.Tag == tag && (m.Kind == kindFragList || m.Kind == kindFragEnd) && ok
		})
		if m.Kind == kindFragEnd {
			childSize[childAt[p]] = m.A
			pending--
			continue
		}
		r.childDirHasFrag[p] = true
		subFrags = append(subFrags, m.A)
		if in.FragParentPort >= 0 {
			nd.Send(in.FragParentPort, m)
		}
	}
	r.subSize = 1
	r.childOff = make([]int64, len(childSize))
	for i, sz := range childSize {
		r.childOff[i] = r.subSize
		r.subSize += sz
	}
	if in.FragParentPort >= 0 {
		nd.Send(in.FragParentPort, congest.Message{Kind: kindFragEnd, Tag: tag, A: r.subSize})
	}
	// Child-fragment attachment directions always contain a fragment.
	for _, p := range r.cross {
		r.childDirHasFrag[p] = true
	}
	// F(v): close the gathered child fragments under fragment-tree
	// descendants (global knowledge, local computation).
	out.FragSet = make(map[int64]bool)
	for _, f := range subFrags {
		for _, d := range r.fragDesc[f] {
			out.FragSet[d] = true
		}
	}
}

// step2b makes every node know A(v): each node's ID streams down
// through its own fragment and one level into child fragments. The
// stream is ordered structurally — each node forwards its own ID before
// relaying its parent's stream — so arrival order is exactly
// nearest-to-farthest regardless of timing. A node's own ID goes down
// fragment child port FragChildPorts[i] with C = childOff[i] and D =
// its subtree size, and relays forward both words unchanged, so the
// uncrossed item for an in-fragment ancestor u carries u's size and the
// offset, under u, of the chain node just below u. Summing the offsets
// from the fragment root (preorder 0) down gives every in-fragment
// ancestor's preorder interval [pre, pre+size), self included.
func (r *respectRun) step2b(out *Output) {
	nd, in := r.nd, r.in
	tag := r.tags.Next(1)
	down, cross := in.FragChildPorts, r.cross

	out.Ancestors = []graph.NodeID{nd.ID()}
	r.sameFragAnc = []graph.NodeID{nd.ID()}
	// Until the stream ends, ancPre[k] holds sameFragAnc[k]'s offset
	// under sameFragAnc[k+1] (0 for the fragment root).
	r.ancPre, r.ancSize = []int64{0}, []int64{r.subSize}

	send := func(m congest.Message) {
		for _, p := range down {
			nd.Send(p, m)
		}
		if m.B == 0 {
			m.B = 1
			for _, p := range cross {
				nd.Send(p, m)
			}
		}
	}
	// My own ID enters my fragment uncrossed, with each child's offset;
	// send() marks it crossed on child-fragment attachment ports.
	for i, p := range down {
		nd.Send(p, congest.Message{Kind: kindAncID, Tag: tag, A: int64(nd.ID()), C: r.childOff[i], D: r.subSize})
	}
	for _, p := range cross {
		nd.Send(p, congest.Message{Kind: kindAncID, Tag: tag, A: int64(nd.ID()), B: 1})
	}

	if in.ParentPort >= 0 {
		for {
			_, m := nd.Recv(func(p int, m congest.Message) bool {
				return m.Tag == tag && (m.Kind == kindAncID || m.Kind == kindAncEnd) && p == in.ParentPort
			})
			if m.Kind == kindAncEnd {
				break
			}
			out.Ancestors = append(out.Ancestors, graph.NodeID(m.A))
			if m.B == 0 {
				r.sameFragAnc = append(r.sameFragAnc, graph.NodeID(m.A))
				r.ancPre[len(r.ancPre)-1] = m.C
				r.ancPre = append(r.ancPre, 0)
				r.ancSize = append(r.ancSize, m.D)
			}
			send(m)
		}
	}
	for _, p := range down {
		nd.Send(p, congest.Message{Kind: kindAncEnd, Tag: tag})
	}
	for _, p := range cross {
		nd.Send(p, congest.Message{Kind: kindAncEnd, Tag: tag})
	}
	// The fragment root sits at preorder 0, and each node below it at
	// its parent's preorder number plus its offset.
	for k := len(r.ancPre) - 2; k >= 0; k-- {
		r.ancPre[k] += r.ancPre[k+1]
	}
}

// step2c makes every node know F(u) for each u ∈ A(v), as increments:
// a pair (u, F') reaches v exactly when u is v's lowest ancestor with
// F' ∈ F(u) (the paper's filter rule), so F(u) = F(v) ∪ {pairs at or
// below u in the chain}.
func (r *respectRun) step2c(out *Output) {
	nd, in := r.nd, r.in
	tag := r.tags.Next(1)
	down, cross := in.FragChildPorts, r.cross

	r.fragOfAncestor = make(map[graph.NodeID]map[int64]bool)

	send := func(u, f, crossed int64) {
		for _, p := range down {
			nd.Send(p, congest.Message{Kind: kindFPair, Tag: tag, A: u, B: f, C: crossed})
		}
		if crossed == 0 {
			for _, p := range cross {
				nd.Send(p, congest.Message{Kind: kindFPair, Tag: tag, A: u, B: f, C: 1})
			}
		}
	}
	// My own pairs, in sorted fragment order for determinism.
	ownFrags := make([]int64, 0, len(out.FragSet))
	for f := range out.FragSet {
		ownFrags = append(ownFrags, f)
	}
	sort.Slice(ownFrags, func(i, j int) bool { return ownFrags[i] < ownFrags[j] })
	for _, f := range ownFrags {
		send(int64(nd.ID()), f, 0)
	}
	if in.ParentPort >= 0 {
		for {
			_, m := nd.Recv(func(p int, m congest.Message) bool {
				return m.Tag == tag && (m.Kind == kindFPair || m.Kind == kindFEnd) && p == in.ParentPort
			})
			if m.Kind == kindFEnd {
				break
			}
			u, f := graph.NodeID(m.A), m.B
			if out.FragSet[f] {
				continue // a lower holder (me or below) covers this fragment
			}
			if r.fragOfAncestor[u] == nil {
				r.fragOfAncestor[u] = make(map[int64]bool)
			}
			r.fragOfAncestor[u][f] = true
			send(m.A, m.B, m.C)
		}
	}
	for _, p := range down {
		nd.Send(p, congest.Message{Kind: kindFEnd, Tag: tag})
	}
	for _, p := range cross {
		nd.Send(p, congest.Message{Kind: kindFEnd, Tag: tag})
	}
}

// lowestAncestorContaining returns the lowest u ∈ A(v) within v's own
// fragment (self included) with target ∈ F(u), or -1.
func (r *respectRun) lowestAncestorContaining(out *Output, target int64) graph.NodeID {
	if out.FragSet[target] {
		return r.nd.ID()
	}
	for _, u := range r.sameFragAnc[1:] {
		if r.fragOfAncestor[u][target] {
			return u
		}
	}
	return -1
}

// step4 makes T'_F (fragment roots, merging nodes and node 0, each
// with its lowest proper T'_F ancestor as parent) global knowledge in
// one AllGather. Merging (≥2 child directions containing a fragment)
// is local after step 2a, fragment roots are known from the fragment
// tree, and a T'_F node finds its T'_F parent locally in A(v): it is
// the first proper ancestor u that is node 0, a fragment root, or has a
// non-empty step-2c increment. An increment holds the fragments of u↓
// outside the child direction toward v; that direction contains a
// fragment (v's own, or one below v), so a second one makes u merging.
// The one exception is a fragment root's own fragment, which is in its
// parent's F but never in its own, so it is left out.
func (r *respectRun) step4(out *Output) {
	nd, in := r.nd, r.in
	dirs := 0
	for _, has := range r.childDirHasFrag {
		if has {
			dirs++
		}
	}
	out.Merging = dirs >= 2

	// Fragment roots (attachment nodes) from the fragment tree.
	fragRoot := make(map[graph.NodeID]bool, len(in.InterEdges))
	for _, ie := range in.InterEdges {
		if in.FragParent[ie.FragU] == ie.FragV {
			fragRoot[ie.U] = true
		}
		if in.FragParent[ie.FragV] == ie.FragU {
			fragRoot[ie.V] = true
		}
	}
	var mine []proto.Item
	if nd.ID() == 0 || fragRoot[nd.ID()] || out.Merging {
		parent := int64(-1)
		for _, u := range out.Ancestors[1:] {
			incr := len(r.fragOfAncestor[u])
			if in.FragParentPort < 0 && r.fragOfAncestor[u][in.FragID] {
				incr--
			}
			if u == 0 || fragRoot[u] || incr > 0 {
				parent = int64(u)
				break
			}
		}
		mine = []proto.Item{{A: int64(nd.ID()), B: parent}}
		if out.Merging {
			mine[0].C = 1
		}
	}
	items := proto.AllGather(nd, in.BFS, r.tags, mine)
	out.TPrime = make(map[graph.NodeID]graph.NodeID, len(items))
	for _, it := range items {
		out.TPrime[graph.NodeID(it.A)] = graph.NodeID(it.B)
		if it.C == 1 {
			out.MergingNodes = append(out.MergingNodes, graph.NodeID(it.A))
		}
	}

	// My lowest T'F ancestor (self included) — always within A(v),
	// because my fragment root is in both.
	r.lowestTPrime = -1
	for _, u := range out.Ancestors {
		if _, ok := out.TPrime[u]; ok {
			r.lowestTPrime = u
			break
		}
	}
}

// fragLCA returns my deepest in-fragment ancestor (self included) whose
// preorder interval contains pre, or -1.
func (r *respectRun) fragLCA(pre int64) graph.NodeID {
	for k, u := range r.sameFragAnc {
		if lo := r.ancPre[k]; lo <= pre && pre < lo+r.ancSize[k] {
			return u
		}
	}
	return -1
}

// tprimeLCA computes the LCA of two T'F nodes locally on the global
// T'F topology.
func tprimeLCA(tp map[graph.NodeID]graph.NodeID, a, b graph.NodeID) graph.NodeID {
	depth := func(x graph.NodeID) int {
		d := 0
		for x != -1 {
			x = tp[x]
			d++
		}
		return d
	}
	da, db := depth(a), depth(b)
	for da > db {
		a = tp[a]
		da--
	}
	for db > da {
		b = tp[b]
		db--
	}
	for a != b {
		a, b = tp[a], tp[b]
	}
	return a
}

// step5 computes ρ(v) (every edge's LCA weight lands at the LCA), then
// δ↓(v) and ρ↓(v) together (the paper's step 3 rides here: Lemma 2.2
// needs δ↓ only next to ρ↓).
func (r *respectRun) step5(out *Output) {
	nd, in := r.nd, r.in
	// The exchange tags are drawn up front: the loops below run per
	// port, so how often a node enters each one is local. The middle
	// draw is spare: it keeps the tag sequence, and with it every later
	// MST merge coin (a hash of the tag), where it was.
	lca1Tag, _, lca2Tag := r.tags.Next(1), r.tags.Next(1), r.tags.Next(1)

	tokens := make(map[graph.NodeID]int64) // type ii: keyed by in-fragment LCA
	globalTokens := make(map[int64]int64)  // type i: keyed by merging node

	// Tree edges are local: the LCA of {me, child} is me.
	for _, p := range in.ChildPorts {
		tokens[nd.ID()] += r.w(p)
	}

	// Non-tree edges present under the current view run the three-case
	// exchange, all ports in parallel. Absent edges (weight <= 0) are
	// skipped symmetrically by both endpoints.
	var nonTree []int
	for p := 0; p < nd.Degree(); p++ {
		if !r.treePortSet[p] && r.w(p) > 0 {
			nonTree = append(nonTree, p)
		}
	}
	for _, p := range nonTree {
		nd.Send(p, congest.Message{Kind: kindLCA1, Tag: lca1Tag, A: in.FragID, B: r.ancPre[0]})
	}
	peerFrag := make(map[int]int64, len(nonTree))
	for range nonTree {
		p, m := nd.Recv(congest.MatchKindTag(kindLCA1, lca1Tag))
		peerFrag[p] = m.A
		// Same-fragment edge: the LCA is my deepest in-fragment ancestor
		// whose preorder interval holds the peer's preorder number. The
		// smaller-ID endpoint holds the token.
		if m.A != in.FragID || nd.ID() > nd.Peer(p) {
			continue
		}
		z := r.fragLCA(m.B)
		if z < 0 {
			panic("respect: same-fragment edge with no common in-fragment ancestor")
		}
		tokens[z] += r.w(p)
	}

	// Different-fragment edges: exchange (lowest T'F ancestor, case-3
	// answer) and resolve.
	for _, p := range nonTree {
		if peerFrag[p] == in.FragID {
			continue
		}
		c3 := r.lowestAncestorContaining(out, peerFrag[p])
		nd.Send(p, congest.Message{Kind: kindLCA2, Tag: lca2Tag, A: int64(r.lowestTPrime), B: int64(c3)})
	}
	for _, p := range nonTree {
		if peerFrag[p] == in.FragID {
			continue
		}
		_, m := nd.Recv(func(q int, m congest.Message) bool {
			return m.Kind == kindLCA2 && m.Tag == lca2Tag && q == p
		})
		myC3 := r.lowestAncestorContaining(out, peerFrag[p])
		peerLowTP, peerC3 := graph.NodeID(m.A), graph.NodeID(m.B)
		switch {
		case myC3 >= 0:
			// LCA is in my fragment; I hold the token (type ii).
			tokens[myC3] += r.w(p)
		case peerC3 >= 0:
			// LCA in the peer's fragment; the peer holds it.
		default:
			// Case 2: LCA is the T'F-LCA, a merging node above both
			// fragments; the smaller-ID endpoint emits a type-i token.
			if nd.ID() < nd.Peer(p) {
				z := tprimeLCA(out.TPrime, r.lowestTPrime, peerLowTP)
				globalTokens[int64(z)] += r.w(p)
			}
		}
	}

	// Type i: keyed global sum over the BFS tree (keys = merging nodes).
	keys := make([]int64, len(out.MergingNodes))
	for i, v := range out.MergingNodes {
		keys[i] = int64(v)
	}
	// Without merging nodes there is no type-i token, and every node
	// sees the same empty list, so all skip the sum and its tag draw.
	if len(keys) > 0 {
		sums := proto.KeyedSum(nd, in.BFS, r.tags, keys, globalTokens)
		out.Rho = sums[int64(nd.ID())] // zero for non-merging nodes
	}

	// Type ii: pipelined intra-fragment ancestor sum.
	out.Rho += r.fragAncestorSum(tokens)

	// δ↓ and ρ↓ in one pass: an intra-fragment subtree sum of (δ, ρ),
	// plus the fragment totals over F(v), gathered globally.
	acc, isFragRoot := proto.ConvergeItem(nd, r.fragOv, r.tags, proto.Item{A: out.Delta, B: out.Rho},
		func(a, b proto.Item) proto.Item { return proto.Item{A: a.A + b.A, B: a.B + b.B} })
	var mine []proto.Item
	if isFragRoot {
		mine = []proto.Item{{A: in.FragID, B: acc.A, C: acc.B}}
	}
	totals := proto.AllGather(nd, in.BFS, r.tags, mine)
	out.DeltaDown, out.RhoDown = acc.A, acc.B
	for _, it := range totals {
		if out.FragSet[it.A] {
			out.DeltaDown += it.B
			out.RhoDown += it.C
		}
	}
}

// fragAncestorSum implements the paper's pipelined intra-fragment
// count: every node v learns the total of tokens keyed v held inside
// v↓ ∩ F_v. Slot k of a node's upward stream carries the subtree total
// for its (k+1)-st in-fragment ancestor; a child's stream is exactly
// the parent's shifted by one, so slots pipeline with O(√n + depth)
// rounds overall.
func (r *respectRun) fragAncestorSum(tokens map[graph.NodeID]int64) int64 {
	nd, in := r.nd, r.in
	tag := r.tags.Next(1)
	chain := r.sameFragAnc // self first
	nSlots := len(chain)   // children send one slot per element of my chain

	result := tokens[nd.ID()]
	outSlots := make([]int64, len(chain)-1)
	for k := range outSlots {
		outSlots[k] = tokens[chain[k+1]]
	}
	for k := 0; k < nSlots; k++ {
		for _, c := range in.FragChildPorts {
			_, m := nd.Recv(func(q int, m congest.Message) bool {
				return m.Kind == kindSlotFrag && m.Tag == tag && q == c && m.A == int64(k)
			})
			if k == 0 {
				result += m.B
			} else {
				outSlots[k-1] += m.B
			}
		}
		if k > 0 && in.FragParentPort >= 0 {
			nd.Send(in.FragParentPort, congest.Message{Kind: kindSlotFrag, Tag: tag, A: int64(k - 1), B: outSlots[k-1]})
		}
	}
	return result
}

// finish computes C(v↓) and the global minimum.
func (r *respectRun) finish(out *Output) {
	nd, in := r.nd, r.in
	out.CutBelow = out.DeltaDown - 2*out.RhoDown

	mine := proto.Item{A: math.MaxInt64, B: int64(nd.ID())}
	if in.ParentPort >= 0 { // the root's C(v↓) is not a cut
		mine.A = out.CutBelow
	}
	best, _ := proto.ConvergeItem(nd, in.BFS, r.tags, mine, proto.MinItem)
	best = proto.BroadcastItem(nd, in.BFS, r.tags, best)
	out.Best = best.A
	out.BestNode = graph.NodeID(best.B)
}

package respect

import (
	"math"
	"slices"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/proto"
)

// hasPort reports whether the ascending port list ports holds p, in
// O(log len(ports)): a node with many tree children must not pay its
// child count for every port or message it checks.
func hasPort(ports []int, p int) bool {
	_, ok := slices.BinarySearch(ports, p)
	return ok
}

// interChildPorts returns the tree-child ports that cross into child
// fragments (attachment edges), i.e. ChildPorts minus FragChildPorts.
func (r *respectRun) interChildPorts() []int {
	var out []int
	for _, p := range r.in.ChildPorts {
		if !hasPort(r.in.FragChildPorts, p) {
			out = append(out, p)
		}
	}
	return out
}

// step2a makes every node know F(v): child-fragment lists are upcast
// within each fragment (pipelined, O(√n + frag diameter) rounds), then
// closed under fragment-tree descendants locally: each gathered
// fragment's T_F subtree is one preorder interval of the fragment
// tree. It also counts the tree-child directions that contain a
// fragment — the raw material for merging-node detection in step 4.
// Each end marker carries its sender's in-fragment subtree size in A,
// so every node learns its own size and, for each fragment child in
// FragChildPorts order, that child's preorder offset below it (1 plus
// the sizes of the earlier children); step 2b hands both down.
func (r *respectRun) step2a(out *Output) {
	nd, in := r.nd, r.in
	tag := r.tags.Next(1)

	// Fragments attached directly below me (local knowledge), in ID
	// order: those whose attachment edge ends at me.
	var subFrags []int64
	for i := 0; i < in.Frags.Len(); i++ {
		if _, outer := in.Frags.Attachment(i); outer == nd.ID() {
			subFrags = append(subFrags, in.Frags.ID(i))
		}
	}

	// Stream my own direct child fragments up immediately, then relay
	// whatever the fragment children deliver.
	if in.FragParentPort >= 0 {
		for _, f := range subFrags {
			nd.Send(in.FragParentPort, congest.Message{Kind: kindFragList, Tag: tag, A: f})
		}
	}
	pending := len(in.FragChildPorts)
	childSize := make([]int64, pending)
	hasFrag := make([]bool, pending) // per FragChildPorts entry: its subtree holds a fragment
	match := func(p int, m congest.Message) bool {
		return m.Tag == tag && (m.Kind == kindFragList || m.Kind == kindFragEnd) && hasPort(in.FragChildPorts, p)
	}
	for pending > 0 {
		p, m := nd.Recv(match)
		i, _ := slices.BinarySearch(in.FragChildPorts, p)
		if m.Kind == kindFragEnd {
			childSize[i] = m.A
			pending--
			continue
		}
		if !hasFrag[i] {
			hasFrag[i] = true
			r.fragDirs++
		}
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
	r.fragDirs += len(r.cross)
	// F(v): close the gathered child fragments under fragment-tree
	// descendants (global knowledge, local computation).
	out.FragSet = in.Frags.AppendSubtrees(nil, subFrags)
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
		match := func(p int, m congest.Message) bool {
			return m.Tag == tag && (m.Kind == kindAncID || m.Kind == kindAncEnd) && p == in.ParentPort
		}
		for {
			_, m := nd.Recv(match)
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
// below u in the chain}. The pairs are kept sorted by (u, F').
func (r *respectRun) step2c(out *Output) {
	nd, in := r.nd, r.in
	tag := r.tags.Next(1)
	down, cross := in.FragChildPorts, r.cross

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
	// My own pairs, in fragment ID order for determinism.
	for _, f := range out.FragSet {
		send(int64(nd.ID()), f, 0)
	}
	if in.ParentPort >= 0 {
		match := func(p int, m congest.Message) bool {
			return m.Tag == tag && (m.Kind == kindFPair || m.Kind == kindFEnd) && p == in.ParentPort
		}
		for {
			_, m := nd.Recv(match)
			if m.Kind == kindFEnd {
				break
			}
			if out.HasFrag(m.B) {
				continue // a lower holder (me or below) covers this fragment
			}
			r.fragOfAncestor = append(r.fragOfAncestor, ancFrag{u: graph.NodeID(m.A), f: m.B})
			send(m.A, m.B, m.C)
		}
		slices.SortFunc(r.fragOfAncestor, compareAncFrag)
	}
	for _, p := range down {
		nd.Send(p, congest.Message{Kind: kindFEnd, Tag: tag})
	}
	for _, p := range cross {
		nd.Send(p, congest.Message{Kind: kindFEnd, Tag: tag})
	}
}

// increment returns u's step-2c increment: the pairs (u, f) that
// reached me, in fragment ID order.
func (r *respectRun) increment(u graph.NodeID) []ancFrag {
	lo, _ := slices.BinarySearchFunc(r.fragOfAncestor, ancFrag{u: u, f: math.MinInt64}, compareAncFrag)
	hi := lo
	for hi < len(r.fragOfAncestor) && r.fragOfAncestor[hi].u == u {
		hi++
	}
	return r.fragOfAncestor[lo:hi]
}

// inIncrement reports whether the pair (u, f) reached me in step 2c.
func (r *respectRun) inIncrement(u graph.NodeID, f int64) bool {
	_, ok := slices.BinarySearchFunc(r.fragOfAncestor, ancFrag{u: u, f: f}, compareAncFrag)
	return ok
}

// lowestAncestorContaining returns the chain index k of the lowest
// u = sameFragAnc[k] ∈ A(v) within v's own fragment (self at 0) with
// target ∈ F(u), or -1.
func (r *respectRun) lowestAncestorContaining(out *Output, target int64) int {
	if out.HasFrag(target) {
		return 0
	}
	for k, u := range r.sameFragAnc[1:] {
		if r.inIncrement(u, target) {
			return k + 1
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
	out.Merging = r.fragDirs >= 2

	// Fragment roots (attachment nodes) come from the fragment tree.
	var mine []proto.Item
	if nd.ID() == 0 || in.Frags.IsFragRoot(nd.ID()) || out.Merging {
		parent := int64(-1)
		for _, u := range out.Ancestors[1:] {
			incr := len(r.increment(u))
			if in.FragParentPort < 0 && r.inIncrement(u, in.FragID) {
				incr--
			}
			if u == 0 || in.Frags.IsFragRoot(u) || incr > 0 {
				parent = int64(u)
				break
			}
		}
		mine = []proto.Item{{A: int64(nd.ID()), B: parent}}
		if out.Merging {
			mine[0].C = 1
		}
	}
	// AllGather sorts the items, so T'F comes out in node ID order.
	items := proto.AllGather(nd, in.BFS, r.tags, mine)
	out.TPrime = make(TPrime, len(items))
	for i, it := range items {
		out.TPrime[i] = tprimeNode{v: graph.NodeID(it.A), parent: graph.NodeID(it.B)}
		if it.C == 1 {
			out.MergingNodes = append(out.MergingNodes, graph.NodeID(it.A))
		}
	}

	// My lowest T'F ancestor (self included) — always within A(v),
	// because my fragment root is in both.
	r.lowestTPrime = -1
	for _, u := range out.Ancestors {
		if _, ok := out.TPrime.Parent(u); ok {
			r.lowestTPrime = u
			break
		}
	}
}

// fragLCA returns the chain index k of my deepest in-fragment ancestor
// sameFragAnc[k] (self at 0) whose preorder interval contains pre, or
// -1.
func (r *respectRun) fragLCA(pre int64) int {
	for k := range r.sameFragAnc {
		if lo := r.ancPre[k]; lo <= pre && pre < lo+r.ancSize[k] {
			return k
		}
	}
	return -1
}

// tprimeLCA computes the LCA of two T'F nodes locally on the global
// T'F topology.
func tprimeLCA(tp TPrime, a, b graph.NodeID) graph.NodeID {
	up := func(x graph.NodeID) graph.NodeID {
		p, _ := tp.Parent(x)
		return p
	}
	depth := func(x graph.NodeID) int {
		d := 0
		for x != -1 {
			x = up(x)
			d++
		}
		return d
	}
	da, db := depth(a), depth(b)
	for da > db {
		a = up(a)
		da--
	}
	for db > da {
		b = up(b)
		db--
	}
	for a != b {
		a, b = up(a), up(b)
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

	// Type ii tokens, by the chain index of their in-fragment LCA in
	// sameFragAnc (self at 0); type i tokens, by merging node.
	tokens := make([]int64, len(r.sameFragAnc))
	globalTokens := make(map[int64]int64)

	// Tree edges are local: the LCA of {me, child} is me.
	for _, p := range in.ChildPorts {
		tokens[0] += r.w(p)
	}

	// Non-tree edges present under the current view run the three-case
	// exchange, all ports in parallel. Absent edges (weight <= 0) are
	// skipped symmetrically by both endpoints.
	var nonTree []int // ascending
	for p := 0; p < nd.Degree(); p++ {
		if p != in.ParentPort && !hasPort(in.ChildPorts, p) && r.w(p) > 0 {
			nonTree = append(nonTree, p)
		}
	}
	for _, p := range nonTree {
		nd.Send(p, congest.Message{Kind: kindLCA1, Tag: lca1Tag, A: in.FragID, B: r.ancPre[0]})
	}
	peerFrag := make([]int64, len(nonTree)) // per nonTree entry
	lca1 := congest.MatchKindTag(kindLCA1, lca1Tag)
	for range nonTree {
		p, m := nd.Recv(lca1)
		i, _ := slices.BinarySearch(nonTree, p)
		peerFrag[i] = m.A
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
	// answer) and resolve. The case-3 answer travels as a node ID.
	for i, p := range nonTree {
		if peerFrag[i] == in.FragID {
			continue
		}
		u := graph.NodeID(-1)
		if c3 := r.lowestAncestorContaining(out, peerFrag[i]); c3 >= 0 {
			u = r.sameFragAnc[c3]
		}
		nd.Send(p, congest.Message{Kind: kindLCA2, Tag: lca2Tag, A: int64(r.lowestTPrime), B: int64(u)})
	}
	var port int // one closure for every port's answer
	match := func(q int, m congest.Message) bool {
		return m.Kind == kindLCA2 && m.Tag == lca2Tag && q == port
	}
	for i, p := range nonTree {
		if peerFrag[i] == in.FragID {
			continue
		}
		port = p
		_, m := nd.Recv(match)
		myC3 := r.lowestAncestorContaining(out, peerFrag[i])
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
		if out.HasFrag(it.A) {
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
func (r *respectRun) fragAncestorSum(tokens []int64) int64 {
	nd, in := r.nd, r.in
	tag := r.tags.Next(1)
	nSlots := len(tokens) // children send one slot per element of my chain

	// tokens is indexed by chain position (self first), so the slots I
	// send up start as tokens[1:].
	result, outSlots := tokens[0], tokens[1:]
	var port int
	var slot int64 // one closure for every (slot, child) receive
	match := func(q int, m congest.Message) bool {
		return m.Kind == kindSlotFrag && m.Tag == tag && q == port && m.A == slot
	}
	for k := 0; k < nSlots; k++ {
		slot = int64(k)
		for _, c := range in.FragChildPorts {
			port = c
			_, m := nd.Recv(match)
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

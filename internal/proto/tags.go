package proto

import "fmt"

// Tags hands out the message tags of one node program. Each program
// creates one counter and passes it down; every protocol and collective
// draws the tags it uses from it, so no caller knows how many tags a
// callee consumes and no two phases of one run ever share a tag.
//
// Every node must draw the same sequence of tags: draw only at points
// every node reaches, with counts all nodes agree on, never inside a
// node-local branch. A node whose draws diverge waits on tags its
// neighbors never send, and the run fails as a deadlock. A phase whose
// nodes may stop at different points draws from a Sub block instead:
// inside the block, only nodes that talk to each other must agree, and
// every node leaves the parent counter at the same place.
type Tags struct {
	next uint64
	// short is how far below 2^32 this counter's block ends, so the zero
	// value hands out the whole 32-bit tag space.
	short uint64
}

// Next returns the first of k consecutive tags that have never been
// handed out; Next(0) reads the counter without advancing it. It
// panics instead of wrapping past 2^32−1 or past the end of a Sub
// block, so once the last tag is out even Next(0) panics.
func (t *Tags) Next(k int) uint32 {
	first, end := t.next, 1<<32-t.short
	if k < 0 || first >= end || first+uint64(k) > end {
		panic(fmt.Sprintf("proto: cannot draw %d tags after %d: the tag block ending at %d is exhausted", k, first, end))
	}
	t.next += uint64(k)
	return uint32(first)
}

// Sub reserves the next k tags of t and returns a counter that hands
// out exactly those, in order, and panics past them. t advances by k
// at once, however many tags the block's user ends up drawing.
func (t *Tags) Sub(k int) *Tags {
	first := uint64(t.Next(k))
	return &Tags{next: first, short: 1<<32 - (first + uint64(k))}
}

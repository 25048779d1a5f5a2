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
// neighbors never send, and the run fails as a deadlock.
type Tags struct {
	next uint64
}

// Next returns the first of k consecutive tags that have never been
// handed out; Next(0) reads the counter without advancing it. It
// panics instead of wrapping past 2^32−1, so once the last tag is out
// even Next(0) panics.
func (t *Tags) Next(k int) uint32 {
	first := t.next
	if k < 0 || first >= 1<<32 || first+uint64(k) > 1<<32 {
		panic(fmt.Sprintf("proto: cannot draw %d tags after %d: the 32-bit tag space is exhausted", k, first))
	}
	t.next += uint64(k)
	return uint32(first)
}

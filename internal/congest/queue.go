package congest

import (
	"math/bits"
	"sync"
)

// queue is a FIFO of messages backed by a power-of-two ring buffer with
// amortized O(1) push/pop and support for removing an element at an
// arbitrary index (selective receive). Initial rings are carved out of
// one per-engine message slab (see Engine.msgSlab) so the queue
// metadata stays a dense 40-byte array that delivery can keep
// cache-resident; queues that outgrow their slab ring switch to buffers
// from a shared size-class pool, and large drained buffers return to
// the pool instead of pinning memory for the rest of the run.
type queue struct {
	buf  []Message // power-of-two capacity; nil when empty and released
	head int
	n    int
}

func (q *queue) len() int { return q.n }

func (q *queue) push(p *bufPool, m Message) {
	if q.n == len(q.buf) {
		q.grow(p)
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = m
	q.n++
}

// at returns the i-th element in FIFO order without removing it.
func (q *queue) at(i int) Message { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// pop removes and returns the head.
func (q *queue) pop(p *bufPool) (Message, bool) {
	if q.n == 0 {
		return Message{}, false
	}
	m := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	q.maybeRelease(p)
	return m, true
}

// removeAt removes the i-th element in FIFO order, preserving the order
// of the rest by shifting whichever side of the ring is shorter.
func (q *queue) removeAt(p *bufPool, i int) Message {
	mask := len(q.buf) - 1
	m := q.buf[(q.head+i)&mask]
	if i < q.n-1-i {
		// Shift the head side forward.
		for j := i; j > 0; j-- {
			q.buf[(q.head+j)&mask] = q.buf[(q.head+j-1)&mask]
		}
		q.head = (q.head + 1) & mask
	} else {
		// Shift the tail side back.
		for j := i; j < q.n-1; j++ {
			q.buf[(q.head+j)&mask] = q.buf[(q.head+j+1)&mask]
		}
	}
	q.n--
	q.maybeRelease(p)
	return m
}

// grow replaces the full ring with one of twice the capacity,
// preserving FIFO order. Growth jumps straight to the smallest pooled
// class, so leaving a slab ring costs no intermediate allocations.
func (q *queue) grow(p *bufPool) {
	newCap := max(2*len(q.buf), minPoolCap)
	nb := p.get(newCap)
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&mask]
	}
	if q.buf != nil {
		p.put(q.buf)
	}
	q.buf = nb
	q.head = 0
}

// maybeRelease returns a fully drained buffer to the pool when it is
// large enough to be worth sharing; small rings are kept so steady
// chatter on an edge never touches the pool.
func (q *queue) maybeRelease(p *bufPool) {
	if q.n == 0 && len(q.buf) >= releaseCap {
		p.put(q.buf)
		q.buf = nil
		q.head = 0
	}
}

const (
	// slabOutCap and slabInCap are the ring capacities carved out of the
	// per-engine message slab for send and receive queues respectively;
	// both must be powers of two. Send queues get room for the staged
	// pipelines protocols build up front; receive queues get the one or
	// two in-flight messages a round leaves behind, which keeps the
	// randomly-addressed receive-ring region of the slab small enough to
	// stay cache-resident during delivery.
	slabOutCap = 8
	slabInCap  = 2
	// minPoolCap is the smallest pooled ring; must be a power of two
	// larger than slabOutCap so slab carves never enter the pool.
	minPoolCap = 16
	// releaseCap is the smallest capacity eagerly returned to the pool
	// when a queue drains.
	releaseCap = 256
	// maxPooledCap bounds what the pool retains; larger rings are
	// allocated and collected directly.
	maxPooledCap = 1 << 18
)

// bufPool holds message ring buffers in power-of-two size classes.
// Message contains no pointers, so recycled buffers need no zeroing and
// never retain garbage. A single process-wide pool (msgBufPool) is
// shared by every engine so repeated runs reuse each other's buffers.
// Rings below minPoolCap are silently rejected by put: they are slab
// carves (see Engine.msgSlab) that must never circulate through the
// pool while whole slabs are recycled.
type bufPool struct {
	classes [15]sync.Pool // capacities minPoolCap..maxPooledCap
}

var msgBufPool bufPool

func classFor(capacity int) int {
	return bits.Len(uint(capacity)) - 5 // 16 -> 0, 32 -> 1, ...
}

func (bp *bufPool) get(capacity int) []Message {
	if capacity > maxPooledCap {
		return make([]Message, capacity)
	}
	if v := bp.classes[classFor(capacity)].Get(); v != nil {
		return v.([]Message)
	}
	return make([]Message, capacity)
}

func (bp *bufPool) put(buf []Message) {
	c := cap(buf)
	if c < minPoolCap || c > maxPooledCap || c&(c-1) != 0 {
		return
	}
	bp.classes[classFor(c)].Put(buf[:c]) //nolint:staticcheck // slice headers are an acceptable pool cost
}

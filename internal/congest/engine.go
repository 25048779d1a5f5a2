package congest

import (
	"cmp"
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"distmincut/internal/chaos"
	"distmincut/internal/graph"
)

// Options configures a simulation run.
type Options struct {
	// MaxRounds aborts runs that exceed this many rounds (safety net
	// against protocol bugs, and the deterministic budget behind service
	// jobs) with a *BudgetError matching ErrMaxRounds. Zero means
	// DefaultMaxRounds.
	MaxRounds int
	// Progress, when non-nil, is updated at every round boundary with
	// the current round number and cumulative delivered-message count,
	// so concurrent observers (e.g. a job-status endpoint) can sample a
	// running simulation without synchronizing with it.
	Progress *Progress
	// Observer, when non-nil, receives one RoundRecord per simulated
	// round at the round barrier (see Observer and RoundRecord). The
	// record carries the round's delivered-message count, the next wake
	// set's size, the cumulative dirty-node count, and the round's
	// wall-clock delivery time. When Observer is nil — the default —
	// the engine skips all timing work and the round barrier pays
	// exactly one nil check: the disabled path adds no allocations and
	// no clock reads.
	Observer Observer
}

// normalize fills Options defaults.
func normalize(opts Options) Options {
	if opts.MaxRounds == 0 {
		opts.MaxRounds = DefaultMaxRounds
	}
	return opts
}

// DefaultMaxRounds is the default safety cap on simulated rounds.
const DefaultMaxRounds = 20_000_000

// ErrDeadlock is returned when every node is parked in Recv, nothing is
// in flight, and no sleep deadline is pending.
var ErrDeadlock = errors.New("congest: deadlock")

// ErrMaxRounds matches every round-cap abort (a *BudgetError).
var ErrMaxRounds = errors.New("congest: exceeded MaxRounds")

// BudgetError is the abort cause when a run exhausts its round budget
// (Options.MaxRounds). It carries how far the run got so callers can
// report partial progress; errors.Is(err, ErrMaxRounds) matches it.
type BudgetError struct {
	// RoundLimit is the MaxRounds cap that tripped.
	RoundLimit int
	// Rounds and Messages are the simulated round and cumulative
	// delivered-message count at the abort boundary.
	Rounds   int
	Messages int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("congest: exceeded MaxRounds (%d) at round %d (%d messages)", e.RoundLimit, e.Rounds, e.Messages)
}

// Is makes errors.Is(err, ErrMaxRounds) match every BudgetError.
func (e *BudgetError) Is(target error) bool { return target == ErrMaxRounds }

// PanicError wraps a panic raised by a node program.
type PanicError struct {
	Node  graph.NodeID
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("congest: node %d panicked: %v", e.Node, e.Value)
}

// Engine is a reusable round-synchronous CONGEST simulator. Create one
// with NewEngine and call Run once per simulation; the engine retains
// its slabs (node structs, queue headers, message rings) and port
// tables between runs, so a warm engine's per-run setup is a handful of
// dirty-region resets instead of allocating and re-zeroing hundreds of
// megabytes. Repeat runs on the same *graph.Graph skip the port-table
// rebuild entirely; runs on a different graph reuse every slab whose
// capacity suffices. Close releases the retained slabs back to the
// process-wide pools (the engine stays usable — the next Run simply
// re-acquires them). An Engine runs one simulation at a time; none of
// its methods are safe for concurrent use. The one-shot package-level
// Run wraps NewEngine + Run + Close.
//
// A program is a blocking func(*Node). Each node's program runs on a
// pooled coroutine bound to the node only while the program is live;
// an activation resumes it until its next Recv or Sleep, or its return.
// The round loop allocates nothing in steady state: the sender
// registry, receiver set, wake list, and park notifications all live
// in reusable per-engine buffers, every queue's initial ring is carved
// out of one retained message slab, and grown rings come from a shared
// size-class pool. Per round the coordinator (1) merges newly
// registered senders into the ID-ordered sender registry, (2) delivers
// — moving exactly one message per staged port (the CONGEST bandwidth
// bound: one message per edge direction per round) and stamping
// receivers into an epoch-numbered generation array, (3) computes the
// wake list from satisfied Recv predicates and due sleepers, and (4)
// activates it — inline when small, otherwise shared with GOMAXPROCS-1
// process-wide activation helpers. Activation is the engine's only
// parallel phase; delivery and matching run on the coordinator.
type Engine struct {
	g     *graph.Graph
	opts  Options
	nodes []*Node

	round     int
	delivered int64
	wakeups   int64
	aborted   atomic.Bool

	// needFullInit forces the next Run to rebuild port tables, recarve
	// every queue, and reinitialize every node: set on engine creation,
	// graph change, Close, and after any aborted run (an abort can
	// leave traffic in arbitrary queues, beyond what the dirty-node
	// list covers).
	needFullInit bool

	// setupNanos is the wall time the last Run spent in per-run setup
	// (everything before the first node activation); surfaced as
	// Stats.SetupNanos.
	setupNanos int64

	// Observer support (all dead weight when opts.Observer is nil).
	// runStart anchors Mark.Nanos and RoundRecord.Nanos to Run entry;
	// timing caches the observer-enabled decision so the round loop
	// reads one bool instead of an interface; obsDelivered is the
	// cumulative delivered count at the previous observed round (for
	// per-round deltas); deliverNs is the last round's delivery time.
	runStart     time.Time
	timing       bool
	obsDelivered int64
	deliverNs    int64

	// revPort[portOff[u]+p] is the port index at the peer for port p of
	// node u, precomputed flat so delivery is O(1) per message with no
	// per-node slice headers.
	revPort []int32
	portOff []int32

	// Sender registry: nodes stage themselves exactly once on their
	// first Send after being drained (guarded by Node.outDirty), so
	// delivery touches only nodes with traffic instead of scanning all
	// n every round. newSenders is written lock-free by activations
	// via the newCount cursor; the coordinator merges it into senders,
	// kept ordered by node ID, between rounds (scratch is the merge
	// buffer).
	newSenders []*Node
	newCount   atomic.Int32
	senders    []*Node
	scratch    []*Node

	// dirtyNodes lists every node that registered as a sender at least
	// once this run. Between runs on the same graph only these nodes'
	// queues (their send rings plus the receive rings they fed at their
	// peers) need resetting — the dirty-region alternative to recarving
	// all 2·ports queue headers.
	dirtyNodes []*Node

	// Receiver set: recvGen[v] == curGen marks v as already collected
	// this round — an epoch-numbered flat array in place of a per-round
	// map, with receivers as the reusable collection order.
	recvGen   []uint32
	curGen    uint32
	receivers []*Node
	wake      []*Node

	// qSlab holds every per-port queue header in one dense allocation
	// (kept small so delivery can hold it in cache); msgSlab backs the
	// initial ring of every queue (one bulk carve instead of 2*ports
	// small allocations; nil when the graph is too large and rings are
	// pooled lazily). Both, and the node slab, are retained by the
	// engine across runs and recycled through global pools on Close, so
	// repeated runs allocate none of them. Message slots are never
	// zeroed: Message holds no pointers and ring slots are written
	// before they are read.
	qSlab    []queue
	msgSlab  []Message
	nodeSlab []Node

	// Activation state (see dispatch): nodes that parked in Sleep or
	// exited are queued on notified for the coordinator (Recv parks
	// need no attention); curWake and the wakeIdx cursor hand out
	// wake-list chunks; actNotified and actDone are the activation
	// helpers' notification lists and completion signal.
	notified    []*Node
	curWake     []*Node
	wakeIdx     atomic.Int32
	actNotified [][]*Node
	actDone     chan struct{}

	sleepers sleepHeap

	marksMu sync.Mutex
	marks   []Mark
}

// maxPreallocMessages caps the per-run message slab (in messages, 40 B
// each): graphs up to ~6M ports (≈3M edges) get every initial ring from
// one bulk allocation; larger graphs fall back to lazy per-queue
// allocation so slab size never exceeds ~2.7 GB.
const maxPreallocMessages = 1 << 26

// qSlabPool, msgSlabPool, and nodeSlabPool recycle the
// per-engine slabs across engines (one-shot runs via the package-level
// Run acquire and release them per call, so even independent engines
// stop paying for slab allocation after the first run). A slab is
// carved at exactly the length its graph needs and pooled in the
// bucket of its capacity's power-of-two class, so engines of very
// different sizes never evict each other's slabs; a request takes a
// pooled slab of its own class only if the slab fits (see getSlab). Queue headers
// and node structs are fully re-initialized on reuse; message slots
// need no zeroing since Message holds no pointers and ring slots are
// written before they are read.
var (
	qSlabPool    [48]sync.Pool
	msgSlabPool  [48]sync.Pool
	nodeSlabPool [48]sync.Pool
)

// slabClass is the pool bucket of a slab of capacity n: bucket c holds
// capacities in (1<<(c-1), 1<<c].
func slabClass(n int) int {
	if n < 2 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// getSlab returns a slab of length n: the first pooled one of n's
// class whose capacity suffices, else a new one of exactly n elements.
// Pooled slabs too small for n are dropped on the way: put back, one
// would sit in the pool's per-P private slot, which Get serves first,
// and hide every fitting slab released after it.
func getSlab[T any](pool *[48]sync.Pool, n int) []T {
	c := slabClass(n)
	for v := pool[c].Get(); v != nil; v = pool[c].Get() {
		if s := v.([]T); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]T, n)
}

// fitSlab returns s resliced to n when its capacity suffices. Otherwise
// it releases s to pool and draws a slab for n elements (possibly
// another engine's release): exactly n for an engine's first slab, and
// a quarter more when it replaces a smaller one, so an engine serving
// graphs of varying size regrows only now and then.
func fitSlab[T any](pool *[48]sync.Pool, s []T, n int) []T {
	switch {
	case cap(s) >= n:
		return s[:n]
	case s == nil:
		return getSlab[T](pool, n)
	}
	putSlab(pool, s)
	return getSlab[T](pool, n+n/4)[:n]
}

// putSlab releases a slab to the bucket of its capacity.
func putSlab[T any](pool *[48]sync.Pool, s []T) {
	pool[slabClass(cap(s))].Put(s) //nolint:staticcheck // slice header cost is amortized over the slab
}

// putNodeSlab releases a node slab, zeroing every node so a pooled
// slab cannot pin the last run's graph or engine (adjacency, queue
// slices, match closures, coroutine handles) until sync.Pool eviction.
// A node holds no state that outlives its run: the full setup pass
// rebuilds each one from scratch.
func putNodeSlab(slab []Node) {
	clear(slab[:cap(slab)])
	putSlab(&nodeSlabPool, slab)
}

// NewEngine creates a reusable engine with the given options. The
// engine allocates nothing until its first Run.
func NewEngine(opts Options) *Engine {
	return &Engine{
		opts:         normalize(opts),
		needFullInit: true,
	}
}

// SetOptions replaces the engine's options between runs. The next Run
// behaves exactly as if the engine had been created with them. Must not
// be called while a Run is in flight.
func (e *Engine) SetOptions(opts Options) {
	e.opts = normalize(opts)
}

// Close releases the engine's retained slabs back to the process-wide
// pools. The engine remains usable: a later Run re-acquires fresh
// slabs. Closing between runs is how the one-shot package-level Run
// keeps slab reuse working across independent engines.
func (e *Engine) Close() {
	if e.qSlab != nil {
		putSlab(&qSlabPool, e.qSlab)
		e.qSlab = nil
	}
	if e.msgSlab != nil {
		putSlab(&msgSlabPool, e.msgSlab)
		e.msgSlab = nil
	}
	if e.nodeSlab != nil {
		putNodeSlab(e.nodeSlab)
		e.nodeSlab = nil
	}
	e.g = nil
	e.nodes = nil
	e.dirtyNodes = nil // pointers into the released node slab
	e.needFullInit = true
}

// Run simulates program on every node of g and returns run statistics.
// The graph must be connected and have deterministic port numbering
// (generators call SortAdjacency; see graph docs). One-shot form of
// (*Engine).Run; see Engine for the reusable lifecycle and the ctx
// contract.
func Run(ctx context.Context, g *graph.Graph, opts Options, program func(*Node)) (*Stats, error) {
	e := NewEngine(opts)
	defer e.Close()
	return e.Run(ctx, g, program)
}

// Run executes program on every node of g. Stats are bit-identical to
// a fresh engine's for the same graph and options — reuse never
// leaks state between runs. The graph must not be mutated between runs
// that share it.
//
// ctx is the only way to stop a run before it finishes on its own
// (Options.MaxRounds is a round budget, not a stop signal): it is
// polled at every round boundary, while every node is parked, so once
// it is done the run aborts cleanly there — every parked program
// unwinds and the partial Stats are returned with an error wrapping
// ctx.Err(). A run that completes is unaffected by a later cancel.
func (e *Engine) Run(ctx context.Context, g *graph.Graph, program func(*Node)) (*Stats, error) {
	start := time.Now()
	e.runStart = start
	e.setupRun(g)
	e.setupNanos = time.Since(start).Nanoseconds()
	err := e.coordinate(ctx, program)
	stats := e.collectAndReset()
	if err != nil {
		// An abort can strand messages in arbitrary queues; recarve
		// everything next time rather than trusting the dirty list.
		e.needFullInit = true
	}
	return stats, err
}

// setupRun prepares the engine for one run: per-run counters and
// registries, and either a full (re)build of the port tables,
// slabs, and node structs — first run, new graph, or after an abort —
// or the warm path, which resets only the queues the previous run
// dirtied.
func (e *Engine) setupRun(g *graph.Graph) {
	n := g.N()
	e.round = 0
	e.delivered = 0
	e.wakeups = 0
	e.aborted.Store(false)
	e.marks = nil
	e.timing = e.opts.Observer != nil
	e.obsDelivered = 0
	e.deliverNs = 0
	e.notified = e.notified[:0]
	e.senders = e.senders[:0]
	e.receivers = e.receivers[:0]
	e.newCount.Store(0)
	e.sleepers = e.sleepers[:0]
	if len(e.recvGen) < n {
		e.recvGen = make([]uint32, n)
		e.curGen = 0
	}

	full := e.needFullInit || g != e.g
	e.g = g
	if full {
		e.buildRevPorts()
	}
	ports := len(e.revPort)

	if !full {
		// Warm path: everything structural is already in place; node
		// fields were reset when the previous run ended. Only the
		// queues dirtied last run need restoring to their carved state.
		e.resetDirtyQueues()
		return
	}

	if cap(e.newSenders) < n {
		e.newSenders = make([]*Node, n)
	} else {
		e.newSenders = e.newSenders[:n]
	}
	if cap(e.nodes) < n {
		e.nodes = make([]*Node, n)
	} else {
		e.nodes = e.nodes[:n]
	}
	e.dirtyNodes = e.dirtyNodes[:0]

	// Acquire or right-size the slabs (see fitSlab).
	e.qSlab = fitSlab(&qSlabPool, e.qSlab, 2*ports)
	if want := ports * (slabOutCap + slabInCap); want <= maxPreallocMessages {
		e.msgSlab = fitSlab(&msgSlabPool, e.msgSlab, want)
	} else if e.msgSlab != nil {
		putSlab(&msgSlabPool, e.msgSlab)
		e.msgSlab = nil
	}
	if cap(e.nodeSlab) < n {
		if e.nodeSlab != nil {
			putNodeSlab(e.nodeSlab)
		}
		e.nodeSlab = getSlab[Node](&nodeSlabPool, n)
	} else {
		e.nodeSlab = e.nodeSlab[:n]
	}

	// Carve each queue's initial ring from the slab: send queues get
	// slabOutCap slots, receive queues slabInCap (see queue.go). The
	// layout is segregated, not interleaved — qSlab[0:ports] holds
	// every send-queue header in port order and qSlab[ports:] every
	// receive-queue header, with rings carved in the same two passes
	// — so the randomly-addressed receive-side state that delivery
	// hits (headers + small rings) is compact enough to stay
	// cache-resident instead of being strewn through the whole slab.
	qSlab := e.qSlab
	if e.msgSlab != nil {
		for i := 0; i < ports; i++ {
			off := i * slabOutCap
			qSlab[i] = queue{buf: e.msgSlab[off : off+slabOutCap : off+slabOutCap]}
		}
		inBase := ports * slabOutCap
		for i := 0; i < ports; i++ {
			off := inBase + i*slabInCap
			qSlab[ports+i] = queue{buf: e.msgSlab[off : off+slabInCap : off+slabInCap]}
		}
	} else {
		for i := range qSlab {
			qSlab[i] = queue{}
		}
	}
	for i := 0; i < n; i++ {
		adj := g.Adj(graph.NodeID(i))
		off := int(e.portOff[i])
		nd := &e.nodeSlab[i]
		*nd = Node{
			id:   graph.NodeID(i),
			eng:  e,
			adj:  adj,
			outQ: qSlab[off : off+len(adj)],
			inQ:  qSlab[ports+off : ports+off+len(adj)],
			lanes: [2]lane{
				{hintPort: -1},
				{phase: phaseDone, hintPort: -1},
			},
		}
		e.nodes[i] = nd
	}
	e.needFullInit = false
}

// resetDirtyQueues restores the carved state of every queue the last
// run touched: each dirty node's send rings plus, via the reverse port
// table, the exact receive rings those sends fed at its peers. Grown
// rings return to the shared pool. Clean queues — the vast majority on
// sparse or early-terminating workloads — are left exactly as the
// carve pass wrote them.
func (e *Engine) resetDirtyQueues() {
	ports := len(e.revPort)
	for _, nd := range e.dirtyNodes {
		off := int(e.portOff[nd.id])
		for p := range nd.adj {
			q := &e.qSlab[off+p]
			if e.msgSlab != nil {
				if len(q.buf) != slabOutCap {
					msgBufPool.put(q.buf)
					mo := (off + p) * slabOutCap
					q.buf = e.msgSlab[mo : mo+slabOutCap : mo+slabOutCap]
				}
				q.head, q.n = 0, 0
			} else {
				msgBufPool.put(q.buf)
				*q = queue{}
			}
			po := int(e.portOff[nd.adj[p].Peer]) + int(e.revPort[off+p])
			iq := &e.qSlab[ports+po]
			if e.msgSlab != nil {
				if len(iq.buf) != slabInCap {
					msgBufPool.put(iq.buf)
					mo := ports*slabOutCap + po*slabInCap
					iq.buf = e.msgSlab[mo : mo+slabInCap : mo+slabInCap]
				}
				iq.head, iq.n = 0, 0
			} else {
				msgBufPool.put(iq.buf)
				*iq = queue{}
			}
		}
		nd.nonEmptyOut = 0
		nd.outDirty = false
		nd.everDirty = false
	}
	e.dirtyNodes = e.dirtyNodes[:0]
}

// collectAndReset assembles the run's Stats and resets the sent
// counters the run mutated. The walk is proportional to traffic, not
// graph size: only dirty nodes (those that sent at least once) carry a
// sent count, and undelivered leftovers can only sit in receive queues
// a dirty sender fed — each (sender, port) pair feeds exactly one
// per-port FIFO at its peer, so summing over the dirty nodes' fed
// queues counts every leftover exactly once. The other per-node run
// state needs no teardown pass at all: every node's program lane is
// made due at the start of each run; a done lane drops its match
// predicate and coroutine; a consumed hint always resets itself; and
// aborts force a full reinitialization.
func (e *Engine) collectAndReset() *Stats {
	// An abort between round barriers can leave senders registered but
	// not yet merged into the dirty list; fold them in so their sent
	// counts are included (and reset) like everyone else's.
	if k := int(e.newCount.Swap(0)); k > 0 {
		for _, nd := range e.newSenders[:k] {
			if !nd.everDirty {
				nd.everDirty = true
				e.dirtyNodes = append(e.dirtyNodes, nd)
			}
		}
	}
	var sent, leftover int64
	ports := len(e.revPort)
	for _, nd := range e.dirtyNodes {
		sent += nd.sent
		nd.sent = 0
		off := int(e.portOff[nd.id])
		for p := range nd.adj {
			po := int(e.portOff[nd.adj[p].Peer]) + int(e.revPort[off+p])
			leftover += int64(e.qSlab[ports+po].n)
		}
	}
	return &Stats{
		Rounds:     e.round,
		Sent:       sent,
		Delivered:  e.delivered,
		Wakeups:    e.wakeups,
		Leftover:   leftover,
		DirtyNodes: len(e.dirtyNodes),
		Marks:      e.marks,
		SetupNanos: e.setupNanos,
	}
}

func (e *Engine) buildRevPorts() {
	n := e.g.N()
	if cap(e.portOff) < n+1 {
		e.portOff = make([]int32, n+1)
	} else {
		e.portOff = e.portOff[:n+1]
	}
	for u := 0; u < n; u++ {
		e.portOff[u+1] = e.portOff[u] + int32(len(e.g.Adj(graph.NodeID(u))))
	}
	ports := int(e.portOff[n])
	if cap(e.revPort) < ports {
		e.revPort = make([]int32, ports)
	} else {
		e.revPort = e.revPort[:ports]
	}
	for u := 0; u < n; u++ {
		off := e.portOff[u]
		for p, h := range e.g.Adj(graph.NodeID(u)) {
			e.revPort[off+int32(p)] = int32(e.g.PortOf(h.Peer, h.EdgeID))
		}
	}
}

// addSender registers nd in the sender set; called by activations on
// the first Send after being drained.
func (e *Engine) addSender(nd *Node) {
	e.newSenders[e.newCount.Add(1)-1] = nd
}

// coordinate is the engine main loop; it runs on the caller goroutine
// and starts program on every node. It returns nil on clean completion
// and the abort cause otherwise. It polls ctx once per round boundary;
// a context that can never be canceled has a nil Done channel, which
// skips the poll entirely.
func (e *Engine) coordinate(ctx context.Context, program func(*Node)) error {
	stop := ctx.Done()
	n := len(e.nodes)
	done := 0
	var firstPanic error

	// Initial activation: every node starts (not counted in Wakeups,
	// matching the historical accounting of the engine).
	e.wake = append(e.wake[:0], e.nodes...)
	for _, nd := range e.wake {
		nd.lanes[0].phase, nd.lanes[0].prog = phaseRunning, program
	}
	for {
		e.dispatch(e.wake)
		for _, nd := range e.notified {
			if pe, ok := nd.panicVal.(*PanicError); ok && firstPanic == nil {
				firstPanic = pe
			}
			for i := range nd.lanes {
				l := &nd.lanes[i]
				if !l.notify {
					continue
				}
				l.notify = false
				if l.phase == phaseSleep {
					heap.Push(&e.sleepers, sleepEntry{at: l.wakeAt, gen: l.parkGen, nd: nd, lane: i})
				} else if i == 0 { // the program returned; a forked lane's return needs nothing
					done++
				}
			}
		}
		e.notified = e.notified[:0]
		if firstPanic != nil {
			return e.abort(firstPanic)
		}
		chaos.Inject(chaos.SiteEngineRound)
		// Every node is parked here, so a context abort is clean.
		if stop != nil {
			select {
			case <-stop:
				return e.abort(fmt.Errorf("congest: run stopped at round %d (%d messages): %w",
					e.round, e.delivered, ctx.Err()))
			default:
			}
		}
		e.mergeSenders()
		if done == n && len(e.senders) == 0 {
			return nil
		}
		// Decide the next round: the immediate next one if traffic is in
		// flight, otherwise fast-forward to the earliest sleep deadline.
		if len(e.senders) > 0 {
			e.round++
		} else {
			e.purgeStaleSleepers()
			if e.sleepers.Len() == 0 {
				return e.abort(e.deadlockError(done))
			}
			e.round = e.sleepers[0].at
		}
		if e.round > e.opts.MaxRounds {
			return e.abort(&BudgetError{RoundLimit: e.opts.MaxRounds, Rounds: e.round, Messages: e.delivered})
		}
		if e.timing {
			t0 := time.Now()
			e.deliver()
			e.deliverNs = time.Since(t0).Nanoseconds()
		} else {
			e.deliver()
		}
		if pg := e.opts.Progress; pg != nil {
			pg.round.Store(int64(e.round))
			pg.delivered.Store(e.delivered)
		}
		e.buildWakeSet()
		e.wakeups += int64(len(e.wake))
		if e.opts.Observer != nil {
			e.observeRound()
		}
	}
}

// observeRound assembles and delivers the round barrier's RoundRecord
// (see Options.Observer). Out of line so the round loop stays small;
// only reached when an observer is set.
func (e *Engine) observeRound() {
	rec := RoundRecord{
		Round:          e.round,
		Delivered:      e.delivered - e.obsDelivered,
		TotalDelivered: e.delivered,
		Woken:          len(e.wake),
		DirtyNodes:     len(e.dirtyNodes),
		Nanos:          time.Since(e.runStart).Nanoseconds(),
		DeliveryNanos:  e.deliverNs,
	}
	e.obsDelivered = e.delivered
	e.opts.Observer.ObserveRound(rec)
}

// mergeSenders merges nodes registered during the last activations
// into the sender registry. The registry is kept ordered by node ID:
// delivery order is semantically irrelevant (see the package docs), but
// ID order makes delivery stream sequentially through the node and
// queue slabs instead of hopping in registration order, which is worth
// a large constant factor in cache hits on big graphs. First-time
// registrations also join the run's dirty-node list, which is what the
// warm-reuse reset walks.
func (e *Engine) mergeSenders() {
	k := int(e.newCount.Swap(0))
	if k == 0 {
		return
	}
	batch := e.newSenders[:k]
	for _, nd := range batch {
		if !nd.everDirty {
			nd.everDirty = true
			e.dirtyNodes = append(e.dirtyNodes, nd)
		}
	}
	slices.SortFunc(batch, func(a, b *Node) int { return cmp.Compare(a.id, b.id) })
	old := len(e.senders)
	e.senders = append(e.senders, batch...)
	if old == 0 || e.senders[old-1].id <= batch[0].id {
		return
	}
	// Restore ID order with one backward in-place merge — O(len +
	// |batch|), no full re-sort.
	e.scratch = append(e.scratch[:0], batch...)
	i, j, w := old-1, len(e.scratch)-1, len(e.senders)-1
	for j >= 0 && i >= 0 {
		if e.scratch[j].id > e.senders[i].id {
			e.senders[w] = e.scratch[j]
			j--
		} else {
			e.senders[w] = e.senders[i]
			i--
		}
		w--
	}
	for j >= 0 {
		e.senders[w] = e.scratch[j]
		j--
		w--
	}
}

// deliver transmits the head message of every staged edge queue — one
// message per edge direction per round, the CONGEST bandwidth bound —
// collects the round's receiver set in node-ID order, and compacts the
// sender registry in place. The transfer is inlined: one ring read,
// one ring write. Delivery order never affects message state: each
// (sender, port) pair feeds exactly one per-port FIFO at its peer.
func (e *Engine) deliver() {
	// Hot-path locals: the peer's inQ ring is addressed straight through
	// the flat port tables and the segregated queue slab (the receive
	// queue for port rp of node v is inSlab[portOff[v]+rp]), so
	// delivering a message never touches the peer's Node struct — only
	// its queue header and ring.
	inSlab := e.qSlab[len(e.revPort):]
	portOff, revPort := e.portOff, e.revPort
	recvGen := e.recvGen
	e.curGen++
	if e.curGen == 0 { // generation wrapped: restart the epoch space
		clear(recvGen)
		for _, nd := range e.nodes {
			nd.wakeGen = 0
		}
		e.curGen = 1
	}
	cur := e.curGen
	var delivered int64
	receivers := e.receivers[:0]
	kept := e.senders[:0]
	for _, nd := range e.senders {
		off := int(portOff[nd.id])
		rev := revPort[off : off+len(nd.adj)]
		for p := range nd.outQ {
			q := &nd.outQ[p]
			if q.n == 0 {
				continue
			}
			v := nd.adj[p].Peer
			inq := &inSlab[int(portOff[v])+int(rev[p])]
			m := q.buf[q.head]
			q.head = (q.head + 1) & (len(q.buf) - 1)
			q.n--
			if q.n == 0 {
				q.maybeRelease(&msgBufPool)
				nd.nonEmptyOut--
			}
			if inq.n == len(inq.buf) {
				inq.grow(&msgBufPool)
			}
			inq.buf[(inq.head+inq.n)&(len(inq.buf)-1)] = m
			inq.n++
			delivered++
			if recvGen[v] != cur {
				recvGen[v] = cur
				receivers = append(receivers, e.nodes[v])
			}
		}
		if nd.nonEmptyOut > 0 {
			kept = append(kept, nd)
		} else {
			nd.outDirty = false
		}
	}
	e.senders = kept
	e.delivered += delivered
	e.receivers = receivers
	e.orderReceivers()
}

// orderReceivers rewrites e.receivers in node-ID order: a dense set is
// rebuilt with one sequential sweep of the generation array, a sparse
// one is sorted directly. Receiver order never affects Stats (matching
// is a pure per-node predicate and wake order is semantically free), but
// ID order makes the matching phase and the woken nodes' first Recv
// stream through the node and queue slabs instead of chasing the random
// peer order delivery produced.
func (e *Engine) orderReceivers() {
	r := e.receivers
	if len(r) <= 1 {
		return
	}
	if len(r)*4 >= len(e.nodes) {
		r = r[:0]
		for i, nd := range e.nodes {
			if e.recvGen[i] == e.curGen {
				r = append(r, nd)
			}
		}
		e.receivers = r
	} else {
		slices.SortFunc(r, func(a, b *Node) int { return cmp.Compare(a.id, b.id) })
	}
}

// buildWakeSet fills e.wake with receivers that have a lane whose Recv
// predicate is now satisfied plus nodes with a lane whose sleep
// deadline has passed, each node once (wake-list order never affects
// Stats; see the package docs).
func (e *Engine) buildWakeSet() {
	e.wake = e.wake[:0]
	cur := e.curGen
	for _, nd := range e.receivers {
		if e.matches(nd) {
			nd.wakeGen = cur
			e.wake = append(e.wake, nd)
		}
	}
	for e.sleepers.Len() > 0 && e.sleepers[0].at <= e.round {
		entry := heap.Pop(&e.sleepers).(sleepEntry)
		if entry.live() && entry.nd.wakeGen != cur {
			entry.nd.wakeGen = cur
			e.wake = append(e.wake, entry.nd)
		}
	}
}

// purgeStaleSleepers drops heap entries whose node has since been woken
// and re-parked, so fast-forward targets are always live deadlines.
func (e *Engine) purgeStaleSleepers() {
	for e.sleepers.Len() > 0 && !e.sleepers[0].live() {
		heap.Pop(&e.sleepers)
	}
}

// matches reports whether a lane of nd parked in Recv has its
// predicate satisfied, recording each such lane's matching port as a
// hint so its Recv can consume the message directly instead of
// rescanning. Only each port's newest message can match: a lane parks
// in Recv only when no buffered message matches (Recv tries first), its
// predicate is stable while it is parked, the other lane only removes
// messages, and a port receives at most one message per round, which
// this check sees in the round it arrives. So the first port whose
// newest message matches holds the message TryRecv would find (lowest
// port, FIFO within a port). Done lanes keep leftovers and are never
// woken.
func (e *Engine) matches(nd *Node) bool {
	l0, l1 := &nd.lanes[0], &nd.lanes[1]
	want0, want1 := l0.phase == phaseRecv, l1.phase == phaseRecv
	if !want0 && !want1 {
		return false
	}
	woke := false
	for p := range nd.inQ {
		q := &nd.inQ[p]
		if q.n == 0 {
			continue
		}
		m := q.at(q.n - 1)
		// A message matches at most one lane: the lanes' predicates
		// accept disjoint messages.
		if want0 && l0.match(p, m) {
			l0.hintPort, want0, woke = p, false, true
		} else if want1 && l1.match(p, m) {
			l1.hintPort, want1, woke = p, false, true
		}
		if !want0 && !want1 {
			break
		}
	}
	return woke
}

// abort unwinds every program still parked on a coroutine (see
// Node.unwind), so no node keeps a coroutine past the run, and returns
// the causing error. It must only be called from coordinate, i.e. while
// no activation is running.
func (e *Engine) abort(cause error) error {
	e.aborted.Store(true)
	for _, nd := range e.nodes {
		nd.unwind()
	}
	return cause
}

func (e *Engine) deadlockError(done int) error {
	var stuck []graph.NodeID
	for _, nd := range e.nodes {
		if nd.lanes[0].phase == phaseRecv || nd.lanes[0].phase == phaseJoin {
			stuck = append(stuck, nd.id)
			if len(stuck) >= 8 {
				break
			}
		}
	}
	return fmt.Errorf("%w at round %d: %d/%d nodes done, first stuck nodes %v",
		ErrDeadlock, e.round, done, len(e.nodes), stuck)
}

func (e *Engine) mark(label string, id graph.NodeID, lane int) {
	e.marksMu.Lock()
	defer e.marksMu.Unlock()
	e.marks = append(e.marks, Mark{
		Label:     label,
		Round:     e.round,
		Node:      id,
		Lane:      lane,
		Delivered: e.delivered,
		Nanos:     time.Since(e.runStart).Nanoseconds(),
	})
}

// sleepEntry and sleepHeap implement the sleeper priority queue.
type sleepEntry struct {
	at   int
	gen  int
	nd   *Node
	lane int
}

// live reports whether the entry still refers to its lane's current
// park (the lane has not been woken and re-parked since).
func (s sleepEntry) live() bool {
	l := &s.nd.lanes[s.lane]
	return l.phase == phaseSleep && l.parkGen == s.gen
}

type sleepHeap []sleepEntry

func (h sleepHeap) Len() int           { return len(h) }
func (h sleepHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h sleepHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *sleepHeap) Push(x any)        { *h = append(*h, x.(sleepEntry)) }
func (h *sleepHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

var _ heap.Interface = (*sleepHeap)(nil)

package congest

import (
	"iter"
	"runtime"
	"runtime/debug"
	"sync"
)

// Program is what an engine executes on every node: either a blocking
// func(*Node) that calls Recv/Sleep and holds its state on its own
// stack, or a StepProgram (an explicit round-driven state machine).
// Run dispatches on the dynamic type; any other type fails the run
// with an error.
//
// Both forms run on the step scheduler: a blocking program is hosted
// by a pooled coroutine while it runs (see hosted), and its Recv and
// Sleep yield the same Park a step program returns. So a step program
// that parks at the same points with the same predicates and sends as
// a blocking program produces bit-identical Stats and marks. A
// blocking program must not call runtime.Goexit (nor t.FailNow): its
// coroutine would propagate the exit to whichever goroutine resumed it.
type Program any

// StepProgram is the compiled form of a node program: instead of
// blocking in Recv or Sleep, each activation is an explicit step that
// returns how it ended (a Park). The engine runs activations as plain
// function calls on the coordinator — or fanned out over activation
// workers — so the per-activation cost is a call into a state slab.
//
// Contract:
//   - InitRun is called once per Run, after engine setup and before the
//     first activation, with the graph's node count. Implementations
//     (re)allocate their per-node state slabs here; reusing a slab whose
//     capacity suffices keeps warm runs allocation-free.
//   - Step runs one activation of nd. The first call per node is its
//     initial activation (round 0); each later call means the node's
//     previous Park was satisfied — its Recv predicate matched a
//     buffered message (consume it via Node.StepRecv) or its sleep
//     expired. Step may use every non-blocking Node method (Send,
//     SendAll, StepRecv, TryRecv, Mark, Rand, Round, ...); calling the
//     blocking Recv or Sleep from a step program panics (surfacing as a
//     *PanicError), since there is no coroutine to park.
//   - Step must be safe for concurrent calls on distinct nodes: the
//     engine steps different nodes from different workers. Per-node
//     state indexed by nd.ID() satisfies this; shared state must be
//     read-only during the run.
//
// The Recv pattern translates mechanically: a blocking nd.Recv(match)
// becomes "consume with StepRecv(match) if present, else return
// ParkRecv(match) and resume here on the next Step".
type StepProgram interface {
	InitRun(n int)
	Step(nd *Node) Park
}

// Park describes how an activation ended: the program exited
// (ParkDone), parked waiting for a matching message (ParkRecv), or
// parked for a number of rounds (ParkSleep). The zero value is
// ParkDone.
type Park struct {
	status stepStatus
	match  MatchFunc
	rounds int
}

type stepStatus uint8

const (
	stepDone stepStatus = iota
	stepRecv
	stepSleep
)

// ParkDone ends the node's program: it will not be activated again this
// run (mirrors the blocking program returning).
func ParkDone() Park { return Park{} }

// ParkRecv parks the node until a buffered or newly delivered message
// satisfies match, exactly like a blocking Recv that found nothing
// buffered. The next Step call should consume the message via
// Node.StepRecv with the same predicate.
func ParkRecv(match MatchFunc) Park { return Park{status: stepRecv, match: match} }

// ParkSleep parks the node for the given number of rounds (at least
// one), exactly like the blocking Node.Sleep.
func ParkSleep(rounds int) Park { return Park{status: stepSleep, rounds: rounds} }

// hosted runs a blocking program as a StepProgram. A node's first
// activation binds a coroutine from the process-wide pool and starts
// the program on it; each Recv or Sleep the program makes yields its
// Park back to Step, and the next activation resumes it. When the
// program returns, the coroutine goes back to the pool, so a coroutine
// (and its stack) is bound to a node only while the node's program is
// live: a million-node graph whose programs exit at once cycles a
// handful of coroutines instead of holding a million.
type hosted func(*Node)

func (hosted) InitRun(int) {}

func (p hosted) Step(nd *Node) Park {
	h := nd.co
	if h == nil {
		h = coPool.Get().(*coHandle)
		h.c.nd, h.c.prog = nd, p
		nd.co = h
	}
	park, ok := h.c.next()
	if park.status == stepDone {
		nd.co = nil
		if ok {
			coPool.Put(h)
		}
	}
	return park
}

// coroutine is an iter.Pull coroutine that runs blocking node programs
// one after another: loop runs the bound program, yields ParkDone when
// it returns, and on the next resume runs whichever program was bound
// meanwhile.
type coroutine struct {
	next  func() (Park, bool)
	stop  func()
	yield func(Park) bool
	nd    *Node
	prog  func(*Node)
}

// coHandle is what the pool and a bound node hold. The coroutine's own
// goroutine references the coroutine but never the handle, so once the
// pool drops an idle handle the garbage collector can reclaim it, and
// its cleanup stops the coroutine, ending that goroutine. Idle
// coroutines thereby outlive any one engine (one-shot Run calls reuse
// them) yet are trimmed by GC like any pooled object.
type coHandle struct{ c *coroutine }

var coPool = sync.Pool{New: func() any {
	c := &coroutine{}
	c.next, c.stop = iter.Pull(c.loop)
	h := &coHandle{c}
	runtime.AddCleanup(h, func(c *coroutine) { c.stop() }, c)
	return h
}}

func (c *coroutine) loop(yield func(Park) bool) {
	c.yield = yield
	for {
		c.run()
		c.nd, c.prog = nil, nil
		if !yield(Park{}) {
			return
		}
	}
}

// run executes the bound program behind the same panic barrier step
// programs get: a panic fails the node (becoming the run's
// *PanicError, with the program's own stack) instead of the process.
// The errAborted unwind an engine abort triggers is not a failure.
func (c *coroutine) run() {
	nd := c.nd
	defer func() {
		if r := recover(); r != nil && r != errAborted {
			nd.panicVal = &PanicError{Node: nd.id, Value: r, Stack: string(debug.Stack())}
		}
	}()
	c.prog(nd)
}

// unwind ends a parked program at an engine abort: its Recv or Sleep
// panics with errAborted on resume, the program's deferred calls run,
// and the coroutine returns to the pool.
func (nd *Node) unwind() {
	if h := nd.co; h != nil {
		nd.co = nil
		if _, ok := h.c.next(); ok {
			coPool.Put(h)
		}
	}
}

// parallelStepMin is the wake-count threshold below which activations
// stay on the coordinator (fanning out a handful of activations costs
// more than running them inline); stepChunk is the number of wake-list
// entries an activation worker claims at a time.
const (
	parallelStepMin = 64
	stepChunk       = 16
)

// actJob offers one engine's current wake list to an idle activation
// helper; slot selects the engine-owned notification list the helper
// fills.
type actJob struct {
	e    *Engine
	slot int
}

// Activation helpers are process-wide: GOMAXPROCS-1 goroutines, started
// on first use, that serve whichever engine offers work. An engine
// offers its wake list only to helpers idle at that moment and always
// works through the list itself too, so engines running concurrently
// (service workers, the harness pool) never wait on each other.
var (
	actJobs     = make(chan actJob)
	actHelpers  int
	actHelperGo sync.Once
)

func startActHelpers() {
	actHelpers = runtime.GOMAXPROCS(0) - 1
	for i := 0; i < actHelpers; i++ {
		go func() {
			for job := range actJobs {
				e := job.e
				e.stepChunks(&e.actNotified[job.slot])
				e.actDone <- struct{}{}
			}
		}()
	}
}

// dispatch runs one activation of every node in wake. Small wakes run
// inline on the coordinator; large ones are shared with idle
// activation helpers, every worker claiming stepChunk entries at a
// time through an atomic cursor — dynamic hand-out, because activation
// costs vary widely between nodes. Each worker collects sleep/done
// notifications into its own list, merged afterwards. Which worker
// runs which node never affects Stats: activations touch only their own
// node's state and stage sends through the lock-free sender registry.
func (e *Engine) dispatch(wake []*Node) {
	if len(wake) < parallelStepMin {
		for _, nd := range wake {
			e.stepNode(nd, &e.notified)
		}
		return
	}
	actHelperGo.Do(startActHelpers)
	e.curWake = wake
	e.wakeIdx.Store(0)
	if len(e.actNotified) < actHelpers {
		e.actNotified = make([][]*Node, actHelpers)
		e.actDone = make(chan struct{}, actHelpers)
	}
	joined := 0
offer:
	for joined < actHelpers && joined*stepChunk < len(wake) {
		select {
		case actJobs <- actJob{e: e, slot: joined}:
			joined++
		default:
			break offer
		}
	}
	e.stepChunks(&e.notified)
	for i := 0; i < joined; i++ {
		<-e.actDone
	}
	for i := 0; i < joined; i++ {
		e.notified = append(e.notified, e.actNotified[i]...)
		e.actNotified[i] = e.actNotified[i][:0]
	}
}

// stepChunks activates wake-list chunks until the cursor runs out.
func (e *Engine) stepChunks(notified *[]*Node) {
	wake := e.curWake
	for {
		hi := int(e.wakeIdx.Add(stepChunk))
		lo := hi - stepChunk
		if lo >= len(wake) {
			return
		}
		if hi > len(wake) {
			hi = len(wake)
		}
		for _, nd := range wake[lo:hi] {
			e.stepNode(nd, notified)
		}
	}
}

// stepNode runs one activation of nd and applies its Park: parkGen
// increments on every park (invalidating stale sleeper-heap entries),
// sleep and done notifications queue for the coordinator, and Recv
// parks need no attention.
func (e *Engine) stepNode(nd *Node, notified *[]*Node) {
	park := e.safeStep(nd)
	switch park.status {
	case stepRecv:
		if park.match == nil {
			nd.panicVal = &PanicError{Node: nd.id, Value: "step program returned ParkRecv with a nil match"}
			nd.phase = phaseDone
			*notified = append(*notified, nd)
			return
		}
		nd.match = park.match
		nd.parkGen++
		nd.phase = phaseRecv
	case stepSleep:
		r := park.rounds
		if r < 1 {
			r = 1
		}
		nd.wakeAt = e.round + r
		nd.parkGen++
		nd.phase = phaseSleep
		*notified = append(*notified, nd)
	default: // stepDone
		nd.phase = phaseDone
		nd.match = nil
		*notified = append(*notified, nd)
	}
}

// safeStep calls the program with a panic barrier: a panic fails the
// node (becoming the run's *PanicError) instead of the process, and the
// node is treated as done so the round can finish before the abort.
// Blocking programs panic inside their coroutine and are caught there
// (see coroutine.run); this barrier catches step programs.
func (e *Engine) safeStep(nd *Node) (park Park) {
	defer func() {
		if r := recover(); r != nil {
			nd.panicVal = &PanicError{Node: nd.id, Value: r, Stack: string(debug.Stack())}
			park = Park{}
		}
	}()
	return e.prog.Step(nd)
}

package congest

import (
	"iter"
	"runtime"
	"runtime/debug"
	"sync"
)

// park is what a lane's Recv, Sleep, Fork or join yields to the
// engine: the lane waits for a message satisfying match (parkRecv), for
// a number of rounds (parkSleep), for the forked lane's first park
// (parkFork) or for its return (parkJoin). The zero value, yielded when
// the lane's function returns, means done.
type park struct {
	status parkStatus
	match  MatchFunc
	rounds int
}

type parkStatus uint8

const (
	parkDone parkStatus = iota
	parkRecv
	parkSleep
	parkFork
	parkJoin
)

// coroutine is an iter.Pull coroutine that runs node programs one after
// another: loop runs the bound program, yields the done park when it
// returns, and on the next resume runs whichever program was bound
// meanwhile. A program must not call runtime.Goexit (nor t.FailNow):
// its coroutine would propagate the exit to whichever goroutine
// resumed it.
type coroutine struct {
	next  func() (park, bool)
	stop  func()
	yield func(park) bool
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

func (c *coroutine) loop(yield func(park) bool) {
	c.yield = yield
	for {
		c.run()
		c.nd, c.prog = nil, nil
		if !yield(park{}) {
			return
		}
	}
}

// run executes the bound program behind the engine's one panic barrier:
// a panic fails the node (becoming the run's *PanicError, with the
// program's own stack) instead of the process. The errAborted unwind an
// engine abort triggers is not a failure.
func (c *coroutine) run() {
	nd := c.nd
	defer func() {
		if r := recover(); r != nil && r != errAborted {
			nd.panicVal = &PanicError{Node: nd.id, Value: r, Stack: string(debug.Stack())}
		}
	}()
	c.prog(nd)
}

// unwind ends a node's parked lanes at an engine abort: each lane's
// Recv, Sleep or join panics with errAborted on resume, its deferred
// calls run, and its coroutine returns to the pool.
func (nd *Node) unwind() {
	for i := range nd.lanes {
		l := &nd.lanes[i]
		l.prog = nil // a retained engine must not pin the caller's closure
		if h := l.co; h != nil {
			l.co = nil
			nd.cur = i
			if _, ok := h.c.next(); ok {
				coPool.Put(h)
			}
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

// stepNode runs one activation of nd: it runs the lowest due lane until
// no lane is due, so due lanes run in lane order (a fork makes the
// forked lane due at once and the forking lane due again once the
// forked one parks; the forked lane's return makes a joining lane due).
// It stops at the first panic. Sleep and done notifications queue the
// node once for the coordinator; Recv parks need no attention.
func (e *Engine) stepNode(nd *Node, notified *[]*Node) {
	notify := false
	for nd.panicVal == nil {
		i := 0
		if !e.due(nd, 0) {
			if !e.due(nd, 1) {
				break
			}
			i = 1
		}
		notify = e.stepLane(nd, i) || notify
	}
	if notify {
		*notified = append(*notified, nd)
	}
}

// due reports whether lane i of an activated node should run now.
func (e *Engine) due(nd *Node, i int) bool {
	l := &nd.lanes[i]
	switch l.phase {
	case phaseRunning:
		return true
	case phaseRecv:
		return l.hintPort >= 0
	case phaseSleep:
		return l.wakeAt <= e.round
	case phaseFork:
		return nd.lanes[1].phase != phaseRunning
	case phaseJoin:
		return nd.lanes[1].phase == phaseDone
	}
	return false
}

// stepLane resumes lane i until its next park and applies the park; it
// reports whether the coordinator must look at the lane (a sleep or a
// return). A lane's first activation binds a coroutine from the
// process-wide pool and starts its function on it; each later one
// resumes it where it parked. When the function returns, the
// coroutine goes back to the pool, so a coroutine (and its stack) is
// bound to a lane only while the lane is live: a million-node graph
// whose programs exit at once cycles a handful of coroutines instead
// of holding a million. parkGen increments on every Recv and Sleep
// park, invalidating stale sleeper-heap entries.
func (e *Engine) stepLane(nd *Node, i int) bool {
	l := &nd.lanes[i]
	h := l.co
	if h == nil {
		h = coPool.Get().(*coHandle)
		h.c.nd, h.c.prog = nd, l.prog
		l.co = h
	}
	nd.cur = i
	l.phase = phaseRunning
	pk, ok := h.c.next()
	switch pk.status {
	case parkRecv:
		l.match = pk.match
		l.parkGen++
		l.phase = phaseRecv
	case parkSleep:
		l.wakeAt = e.round + pk.rounds
		l.parkGen++
		l.phase = phaseSleep
		l.notify = true
	case parkFork:
		l.phase = phaseFork
	case parkJoin:
		l.phase = phaseJoin
	default: // parkDone
		l.co = nil
		if ok {
			coPool.Put(h)
		}
		l.phase = phaseDone
		l.match, l.prog = nil, nil
		l.notify = true
		if i == 0 && nd.lanes[1].phase != phaseDone && nd.panicVal == nil {
			nd.panicVal = &PanicError{Node: nd.id, Value: "congest: program returned without joining its fork"}
		}
	}
	return l.notify
}

package congest

import (
	"fmt"

	"distmincut/internal/graph"
)

type nodePhase int

const (
	phaseRunning nodePhase = iota // running, or due to (re)start in this activation
	phaseRecv
	phaseSleep
	phaseFork // the program's lane waits for the forked lane's first park
	phaseJoin // the program's lane waits for the forked lane to return
	phaseDone
)

// Node is the per-processor handle passed to the node program. All
// methods must be called only from that node's own program or from a
// function it forked (see Fork).
type Node struct {
	id  graph.NodeID
	eng *Engine
	adj []graph.Half

	outQ []queue // staged sends, one FIFO per port; head transmitted each round
	inQ  []queue // received but not yet consumed, one FIFO per port

	// lanes[0] runs the node's program; lanes[1] runs the function the
	// program forked, and is phaseDone when there is none. cur is the
	// lane running now. Both lanes share the node's ports and queues.
	lanes    [2]lane
	cur      int
	wakeGen  uint32 // the delivery epoch in which the node last joined the wake list
	panicVal any

	nonEmptyOut int   // number of ports with staged messages (node-local view)
	outDirty    bool  // registered in the engine's sender set
	everDirty   bool  // sent at least once this run (on the engine's dirty-node list)
	sent        int64 // messages staged by this node (summed into Stats.Sent)
}

// lane is one coroutine of a node: the program, or the function it
// forked. Each lane parks on its own.
type lane struct {
	phase   nodePhase
	notify  bool        // parked in Sleep or finished since the coordinator last looked
	match   MatchFunc   // valid while phase == phaseRecv
	wakeAt  int         // valid while phase == phaseSleep
	parkGen int         // incremented on every Recv or Sleep park; invalidates stale sleeper heap entries
	co      *coHandle   // the coroutine running the lane while it is live
	prog    func(*Node) // the lane's function while it is live

	// Match hint: when the scheduler wakes a lane from Recv, it has
	// already found the first matching message (lowest port, FIFO within
	// a port) while evaluating the wake predicate: the newest message of
	// port hintPort (see Engine.matches). The woken Recv consumes it
	// directly instead of rescanning every port. hintPort is -1 whenever
	// no hint is pending, and a pending hint is what makes a lane in
	// Recv due to run.
	hintPort int
}

// ID returns this node's unique identifier.
func (nd *Node) ID() graph.NodeID { return nd.id }

// N returns the number of nodes in the network.
func (nd *Node) N() int { return len(nd.eng.nodes) }

// Degree returns the number of incident edges (ports).
func (nd *Node) Degree() int { return len(nd.adj) }

// Peer returns the ID of the neighbor across port p.
func (nd *Node) Peer(p int) graph.NodeID { return nd.adj[p].Peer }

// EdgeWeight returns the weight of the edge at port p.
func (nd *Node) EdgeWeight(p int) int64 { return nd.adj[p].W }

// EdgeID returns the graph edge ID of the edge at port p.
func (nd *Node) EdgeID(p int) int { return nd.adj[p].EdgeID }

// PortTo returns the port leading to neighbor v, or -1 if v is not a
// neighbor.
func (nd *Node) PortTo(v graph.NodeID) int {
	for p, h := range nd.adj {
		if h.Peer == v {
			return p
		}
	}
	return -1
}

// Round returns the current global round number.
func (nd *Node) Round() int { return nd.eng.round }

// Send stages a message on port p. The runtime transmits the head of
// each port's FIFO once per round, so k messages staged on one port
// arrive over k consecutive rounds (pipelining with its true round
// cost). Sends become visible to the network from the next round after
// the node parks.
func (nd *Node) Send(p int, m Message) {
	if p < 0 || p >= len(nd.adj) {
		panic(fmt.Sprintf("congest: node %d Send on invalid port %d (degree %d)", nd.id, p, len(nd.adj)))
	}
	const lim = uint64(PayloadLimit) // uint64(w)+lim maps [-lim, lim] onto [0, 2·lim]
	if uint64(m.A)+lim > 2*lim || uint64(m.B)+lim > 2*lim || uint64(m.C)+lim > 2*lim || uint64(m.D)+lim > 2*lim {
		nd.checkPayload(p, m)
	}
	if !nd.outDirty {
		nd.outDirty = true
		nd.eng.addSender(nd)
	}
	q := &nd.outQ[p]
	if q.n == 0 {
		nd.nonEmptyOut++
	}
	if q.n < len(q.buf) { // inlined push fast path
		q.buf[(q.head+q.n)&(len(q.buf)-1)] = m
		q.n++
	} else {
		q.push(&msgBufPool, m)
	}
	nd.sent++
}

// checkPayload enforces PayloadLimit on a message Send found a large
// word in: every word beyond the limit must be one of the two exact
// extreme sentinels (math.MaxInt64 / math.MinInt64, which protocols use
// as "∞ / none" markers). Out of line so the Send fast path stays
// small.
func (nd *Node) checkPayload(p int, m Message) {
	const maxInt64 = int64(^uint64(0) >> 1)
	for i, w := range [PayloadWords]int64{m.A, m.B, m.C, m.D} {
		if (w > PayloadLimit || w < -PayloadLimit) && w != maxInt64 && w != -maxInt64-1 {
			panic(fmt.Sprintf(
				"congest: node %d Send on port %d: payload word %c = %d exceeds ±2^62 (kind %d tag %d) — packing overflow?",
				nd.id, p, 'A'+i, w, m.Kind, m.Tag))
		}
	}
}

// SendAll stages the same message on every port.
func (nd *Node) SendAll(m Message) {
	for p := range nd.adj {
		nd.Send(p, m)
	}
}

// TryRecv consumes and returns the first buffered message (lowest port,
// FIFO within a port) matching match, without blocking.
func (nd *Node) TryRecv(match MatchFunc) (int, Message, bool) {
	for p := range nd.inQ {
		q := &nd.inQ[p]
		n := q.n
		if n == 0 {
			continue
		}
		mask := len(q.buf) - 1
		for i := 0; i < n; i++ {
			if match(p, q.buf[(q.head+i)&mask]) {
				return p, q.removeAt(&msgBufPool, i), true
			}
		}
	}
	return 0, Message{}, false
}

// Recv blocks until a message matching match is available, then
// consumes and returns it. Non-matching messages stay buffered for
// later Recv calls (selective receive). A nil match fails the node.
func (nd *Node) Recv(match MatchFunc) (int, Message) {
	if match == nil {
		panic(fmt.Sprintf("congest: node %d Recv with a nil match", nd.id))
	}
	if p, m, ok := nd.TryRecv(match); ok {
		return p, m
	}
	nd.park(park{status: parkRecv, match: match})
	// The scheduler woke this lane because the predicate held, and left
	// the port whose newest message is the first match (lowest port,
	// FIFO within a port) as a hint: consume it directly instead of
	// rescanning. The other lane of the node may have run first, but it
	// only removes messages its own predicate accepts, so the hinted one
	// is still the newest of its port.
	l := &nd.lanes[nd.cur]
	if p := l.hintPort; p >= 0 {
		l.hintPort = -1
		if q := &nd.inQ[p]; q.n > 0 && match(p, q.at(q.n-1)) {
			return p, q.removeAt(&msgBufPool, q.n-1)
		}
	}
	panic(fmt.Sprintf("congest: node %d woken from Recv with no matching message", nd.id))
}

// Sleep parks the calling lane for the given number of rounds (at
// least one).
// It is the mechanism for "wait out" protocol phases with known bounds.
func (nd *Node) Sleep(rounds int) {
	if rounds < 1 {
		rounds = 1
	}
	nd.park(park{status: parkSleep, rounds: rounds})
}

// Mark records a named timestamp (current round) in the run's stats,
// tagged with the lane that records it. Typically called by one
// designated node at phase boundaries.
func (nd *Node) Mark(label string) {
	nd.eng.mark(label, nd.id, nd.cur)
}

// Fork starts f on this node's second lane and returns join, which
// parks the calling lane until f has returned. f runs as a second
// coroutine of the same node: it shares the node's ports and per-port
// FIFOs, so the engine still moves one message per port per round
// whichever lane staged it, and it parks on its own Recv matches and
// Sleep deadlines. The node wakes when either lane is due, and its due
// lanes run in a fixed order, the program's lane first. f starts at
// once, in the current activation, and the calling lane resumes when f
// first parks. Only the program's lane may fork, and only while no
// fork is live: a nested Fork panics. Messages for the two lanes must
// be told apart by their match functions (distinct tags). The program
// must call join before it returns.
func (nd *Node) Fork(f func(*Node)) (join func()) {
	if nd.cur != 0 || nd.lanes[1].phase != phaseDone {
		panic(fmt.Sprintf("congest: node %d nested Fork", nd.id))
	}
	// parkGen carries over, so a sleeper entry from an earlier fork
	// never matches this one.
	nd.lanes[1] = lane{phase: phaseRunning, parkGen: nd.lanes[1].parkGen, prog: f, hintPort: -1}
	nd.park(park{status: parkFork})
	return nd.join
}

// join parks the program's lane until the forked lane has returned.
func (nd *Node) join() {
	if nd.cur != 0 {
		panic(fmt.Sprintf("congest: node %d joined its fork from the forked lane", nd.id))
	}
	if nd.lanes[1].phase != phaseDone {
		nd.park(park{status: parkJoin})
	}
}

// park yields p to the scheduler and returns when the lane is
// activated again. An abort resumes the lane only to unwind it: park
// then panics with errAborted, which the coroutine absorbs.
func (nd *Node) park(p park) {
	if nd.eng.aborted.Load() || !nd.lanes[nd.cur].co.c.yield(p) || nd.eng.aborted.Load() {
		panic(errAborted)
	}
}

// errAborted is the sentinel panic value used to unwind parked programs
// when the engine aborts (a node panicked or a limit tripped).
var errAborted = &abortSentinel{}

type abortSentinel struct{}

func (*abortSentinel) Error() string { return "congest: run aborted" }

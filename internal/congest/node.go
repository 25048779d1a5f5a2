package congest

import (
	"fmt"

	"distmincut/internal/graph"
)

type nodePhase int

const (
	phaseRunning nodePhase = iota
	phaseRecv
	phaseSleep
	phaseDone
)

// Node is the per-processor handle passed to the node program. All
// methods must be called only from that node's own program.
type Node struct {
	id  graph.NodeID
	eng *Engine
	adj []graph.Half

	outQ []queue // staged sends, one FIFO per port; head transmitted each round
	inQ  []queue // received but not yet consumed, one FIFO per port

	phase    nodePhase
	match    MatchFunc // valid while phase == phaseRecv
	wakeAt   int       // valid while phase == phaseSleep
	parkGen  int       // incremented on every park; invalidates stale sleeper heap entries
	co       *coHandle // the coroutine running the node's program while it is live
	panicVal any

	// Match hint: when the scheduler wakes this node from Recv, it has
	// already found the first matching message (lowest port, FIFO within
	// a port) while evaluating the wake predicate; it records that
	// position here so the woken Recv consumes it directly instead of
	// rescanning every port. hintPort is -1 whenever no hint is pending.
	hintPort int32
	hintIdx  int32

	nonEmptyOut int   // number of ports with staged messages (node-local view)
	outDirty    bool  // registered in the engine's sender set
	everDirty   bool  // sent at least once this run (on the engine's dirty-node list)
	sent        int64 // messages staged by this node (summed into Stats.Sent)
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
	// The scheduler woke this node because the predicate held, and left
	// the first matching message's position (lowest port, FIFO within a
	// port) as a hint: consume it directly instead of rescanning.
	if p := int(nd.hintPort); p >= 0 {
		i := int(nd.hintIdx)
		nd.hintPort = -1
		if q := &nd.inQ[p]; i < q.n && match(p, q.at(i)) {
			return p, q.removeAt(&msgBufPool, i)
		}
	}
	panic(fmt.Sprintf("congest: node %d woken from Recv with no matching message", nd.id))
}

// Sleep parks the node for the given number of rounds (at least one).
// It is the mechanism for "wait out" protocol phases with known bounds.
func (nd *Node) Sleep(rounds int) {
	if rounds < 1 {
		rounds = 1
	}
	nd.park(park{status: parkSleep, rounds: rounds})
}

// Mark records a named timestamp (current round) in the run's stats.
// Typically called by one designated node at phase boundaries.
func (nd *Node) Mark(label string) {
	nd.eng.mark(label, nd.id)
}

// park yields p to the scheduler and returns when the node is
// activated again. An abort resumes the node only to unwind it: park
// then panics with errAborted, which the coroutine absorbs.
func (nd *Node) park(p park) {
	if nd.eng.aborted.Load() || !nd.co.c.yield(p) || nd.eng.aborted.Load() {
		panic(errAborted)
	}
}

// errAborted is the sentinel panic value used to unwind parked programs
// when the engine aborts (a node panicked or a limit tripped).
var errAborted = &abortSentinel{}

type abortSentinel struct{}

func (*abortSentinel) Error() string { return "congest: run aborted" }

// Package congest simulates the synchronous CONGEST message-passing
// model [Pel00]: n nodes with unique IDs, communication in synchronous
// rounds where each node may send one O(log n)-bit message per incident
// edge per round.
//
// # Execution model
//
// Node programs are ordinary blocking Go code. A node stages outgoing
// messages with Send (one per-port FIFO each; the runtime transmits the
// head of every FIFO each round, so multi-message transfers are
// automatically pipelined and pay their true round cost), then blocks in
// Recv or Sleep. A round-synchronous scheduler advances the global round
// only when every node is parked, delivers the head of every staged edge
// queue, and wakes exactly the nodes whose receive predicate is now
// satisfied or whose sleep deadline passed. Rounds with no traffic and
// no due wake-ups are fast-forwarded, and delivery walks a registry of
// nodes with staged traffic rather than all n nodes, so simulation cost
// is proportional to messages moved plus nodes woken — not n x rounds.
//
// Every program is a blocking func(*Node). Each node's program runs on
// a coroutine (iter.Pull) taken from a process-wide pool at the node's
// first activation: its Recv and Sleep yield a park to the scheduler,
// the next activation resumes it, and when it returns the coroutine
// goes back to the pool — so a coroutine is bound to a node only while
// the node's program runs. Idle pooled coroutines outlive engines and
// are stopped once the garbage collector trims them from the pool.
// Large wake sets are activated on GOMAXPROCS workers claiming chunks
// of the wake list through an atomic cursor, which is safe because an
// activation touches only its own node's state.
//
// The round loop reuses per-engine scratch buffers (an epoch-stamped
// receiver array, a wake list, an ID-ordered sender registry) and
// slab-allocates every queue and its initial ring, so steady-state
// simulation does not allocate.
//
// # Engine reuse
//
// An Engine is a long-lived, reusable object: NewEngine(opts) creates
// one and (*Engine).Run(ctx, g, program) executes a simulation on it;
// ctx, polled at every round boundary, is the one way to stop a run
// early (Options.MaxRounds is a deterministic round budget). The
// engine retains its slabs (node structs, queue headers, message
// rings) and flat port tables between runs: a warm run on the same
// graph resets only the dirty region — the queues the previous run's
// senders touched, located through the sender registry and the reverse
// port table — instead of re-zeroing everything, and a run on a
// different graph rebuilds the port tables while reusing every slab
// whose capacity fits. Stats.SetupNanos reports what setup remains.
// Close releases the slabs to process-wide pools; the package-level Run
// is the one-shot NewEngine + Run + Close. Reuse never leaks state:
// the engine holds no random state, an abort unwinds every parked
// program, and a reused engine's Stats are bit-identical to a fresh
// engine's for the same graph, options, and program.
//
// # Determinism
//
// Activations running in parallel touch only their own node's state;
// message delivery and round advancement happen while all nodes are
// parked, and each (sender, port) pair feeds its own per-port FIFO at
// the receiver, so queue contents are independent of delivery and
// activation order. The engine draws no randomness and offers none to
// programs: a protocol that needs coins derives them from a seed it
// carries itself (the MST merge coin and the skeleton samplers hash
// theirs; see proto.SeedHash). Two runs with the same graph, options,
// and program produce identical Stats (rounds, sent, delivered,
// wakeups, leftover) under any GOMAXPROCS. The one scheduling-dependent
// quantity is the interleaving of Marks recorded by different nodes
// within the same round.
//
// # Model fidelity
//
// Messages are a fixed struct of one kind byte, one 32-bit tag, and four
// 64-bit words — O(log n) bits for every workload in this repository
// (IDs < n, weights and aggregates polynomially bounded). Nodes know
// their own ID, their neighbors' IDs, incident edge weights (the
// paper's KT1-style assumption: "initially knows the weights of edges
// incident to it"), and n. Unbounded local computation per round is
// free, as in CONGEST.
package congest

// Message is the unit of communication: a kind (protocol opcode), a tag
// (protocol instance / epoch, so that consecutive uses of a primitive
// never confuse each other's traffic), and four payload words. Total
// size is O(log n) bits in every use in this repository. Protocols draw
// tags from their node program's proto.Tags counter, and every node
// must draw the same tag sequence, or receives wait on tags no
// neighbor sends.
type Message struct {
	Kind uint8
	Tag  uint32
	A    int64
	B    int64
	C    int64
	D    int64
}

// PayloadWords is the number of int64 payload words per message, used
// for bit accounting in Stats.
const PayloadWords = 4

// PayloadLimit bounds the magnitude of each payload word; Send enforces
// it on every message. The repository's packing convention is
// at most two 31-bit fields per word (IDs < n ≤ 2^31, weights and loads
// < 2^31 per distmincut.MaxWeight), optionally with one flag carried in
// the sign — so every legitimate word has magnitude at most 2^62. A
// word beyond that almost always means a protocol's packing arithmetic
// overflowed, which the guard turns into an immediate, attributed
// failure instead of a silently wrong cut. The two exact extremes
// math.MaxInt64 and math.MinInt64 are exempt: protocols use them as
// "∞ / none" sentinels (an O(1)-bit symbol, not a counted quantity).
const PayloadLimit = int64(1) << 62

// MatchFunc decides whether a buffered or newly delivered message
// satisfies a pending Recv. It must be a pure function of its arguments:
// the coordinator evaluates it while the owning node is parked.
type MatchFunc func(port int, m Message) bool

// MatchAny accepts every message.
func MatchAny(int, Message) bool { return true }

// MatchKind accepts messages with the given kind.
func MatchKind(kind uint8) MatchFunc {
	return func(_ int, m Message) bool { return m.Kind == kind }
}

// MatchKindTag accepts messages with the given kind and tag.
func MatchKindTag(kind uint8, tag uint32) MatchFunc {
	return func(_ int, m Message) bool { return m.Kind == kind && m.Tag == tag }
}

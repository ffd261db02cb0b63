// Package core implements the message-passing (MP) computation model of
// Bokor et al., "Efficient Model Checking of Fault-Tolerant Distributed
// Protocols" (DSN 2011), Section II.
//
// A system consists of n processes communicating through unordered channels.
// A protocol defines, per process, a set of transitions. A transition can
// consume a set of messages from the incoming channels of its process (a
// quorum transition if the set may contain messages from more than one
// sender), change the local state of the process, and send messages — all in
// one indivisible step. The semantics is a state graph whose states are
// vectors of local states plus the multiset of in-flight messages.
//
// The package provides:
//
//   - the state representation (LocalState, Message, Bag, State) with
//     canonical, deterministic encoding used for stateful search;
//   - the transition representation (Transition) including the partial-order
//     reduction annotations of the paper's Table IV (priority, visibility,
//     reply flag, send specifications, peer restriction);
//   - enabled-event enumeration implementing exact quorum semantics
//     (Definition 2): an event is a pair (t, X) where X holds exactly
//     q_t messages of t's type from q_t distinct senders;
//   - execution of events, building each successor from what its event
//     changed.
//
// The Bag of in-flight messages is a slice of (message record,
// multiplicity) entries sorted by canonical message key. A record is the
// message with its key cached, allocated once — by Bag.Add, or by
// StepBuffer.Keep in one block per successor — and shared by every bag that
// ever holds the message, so every message read back from a bag, an Event
// or a Ctx answers Key() without rebuilding the string — which is also why
// a sent Message is immutable (see Message). Bag.Each iterates in key
// order, and matching the pending messages of a transition (AppendMatching,
// HasMatchingSenders, AppendMatchingSenders) is a scan into caller-owned
// scratch: Enabled allocates only the events it returns, StructurallyEnabled
// nothing, and AppendMatchingSenders — one pass that names every allowed
// sender with a candidate pending, from which package por derives both the
// senders a disabled transition is missing and the ones that can no longer
// grow an enabled one — nothing once the caller's scratch has grown.
// AppendMatching orders senders numerically while keys order them as
// decimal strings; the two differ from eleven processes on.
//
// A State carries the canonical key of each process's local state, complete
// from construction. Execute hands the parent's local states and their keys
// to the successor and takes only the executing process's key — when that
// key comes out unchanged the successor shares the parent's vectors outright,
// otherwise it copies them into the State's own allocation; it builds the
// successor's bag in one merge of the parent's entries, the consumed set and
// the sends, copying 16 bytes per untouched message; and State.Key joins the
// cached local and message keys into one allocation of exactly the key's
// length. The rule this rests on: a LocalState is immutable once installed
// in a State — returned by Init, or left in Ctx.Local when Apply returns —
// and its Key is taken exactly once, then. A transition that writes to a
// local state it does not own (through Ctx.Global, or a pointer kept from an
// earlier Apply) corrupts the keys of every state sharing it;
// Protocol.ValidateSends re-derives the inherited keys on every Execute and
// fails with the process and transition named.
//
// Execute is Step followed by Keep through a pooled StepBuffer. Step
// computes the successor into memory the buffer owns — the Ctx with its
// send buffer, a State block that holds the local vectors only when the
// executing process's key changed, and the merged bag entries — and returns
// a transient view: a *State that stays valid until the buffer's next Step.
// Keep hands the view over as an ordinary State, key included if Key has
// built it, and copies out what the buffer keeps reusing: the records of
// the messages the parent never held, in one block of their exact number,
// and the bag entries when they were merged into reused memory. A search that asks its visited set about the view's key first
// keeps only the successors it has not seen and reuses the buffer's memory
// for the rest, as package explore's DFS and BFS do; code that hands a view
// on must not let it, or anything reached through it except strings and
// local states, outlive the next Step.
//
// Everything in this package is deterministic: enumeration orders, state
// keys and event keys are stable across runs, which makes searches
// reproducible and state graphs comparable (the property behind the paper's
// Theorem 2 tests in package refine).
package core

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
//   - execution of events with copy-on-write state construction.
//
// The Bag of in-flight messages is a slice of (message, multiplicity)
// entries sorted by canonical message key. A message's key is built once,
// when Bag.Add first sees it, and cached inside the Message value, so every
// message read back from a bag, an Event or a Ctx answers Key() without
// rebuilding the string — which is also why a sent Message is immutable
// (see Message). Cloning a bag is one slice copy, the state key walks the
// entries in order, Bag.Each iterates in key order, and matching the
// pending messages of a transition (AppendMatching, HasMatchingSenders) is
// a scan into caller-owned scratch: Enabled allocates only the events it
// returns, StructurallyEnabled and MissingSenders nothing on a complete
// quorum. Matching orders senders numerically while keys order them as
// decimal strings; the two differ from eleven processes on.
//
// Everything in this package is deterministic: enumeration orders, state
// keys and event keys are stable across runs, which makes searches
// reproducible and state graphs comparable (the property behind the paper's
// Theorem 2 tests in package refine).
package core

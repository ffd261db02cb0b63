// Package por implements the static partial-order reduction of the paper's
// MP-Basset checker (the MP-LPOR algorithm, §III-A/§IV): stubborn sets
// computed per state from a seed transition, over a *precomputed,
// state-independent* dependence relation specialized to the message-passing
// model, with the necessary-enabling-transitions (NET) optimization that
// narrows enabling candidates to the senders a disabled transition is still
// missing.
//
// Dependence in the MP model (the relation MP-LPOR precomputes):
//
//   - transitions of the same process are dependent (they share the local
//     state and compete for the process's incoming messages);
//   - t is dependent on u if t may send a message u may consume, taking
//     static send specifications, peer restrictions and reply discipline
//     into account — this is where transition refinement (package refine)
//     pays off: split transitions declare narrower peers/recipients, so
//     fewer pairs are dependent and "can-enable" edges become sparser
//     (§III-C/D);
//   - sends into channels commute, so transitions of different processes
//     that only send are independent;
//   - transitions reading other processes' states (GlobalReads) are
//     dependent on every transition of those processes.
//
// Representation. The transition universe is fixed before the search starts
// (a dozen to a few dozen indices on the bundled models), so every relation
// of Analysis is a table of bitset rows — conflicts, writers, feeders,
// feeders by (transition, feeding process), writers ∪ feeders, the
// symmetric dependence relation, and the one row of visible transitions —
// cut from a single slab by NewAnalysis, and Expander.Expand computes a
// stubborn set as an OR-fixed-point over rows: ample size and the C2 check
// are a popcount and an AND. The invariant the closure rests on: the row a
// member pulls in (conflicts and still-growing feeders if it is enabled,
// its necessary enabling set otherwise) depends on the state but not on
// the seed nor on the rest of the set. Expand therefore computes each row
// at most once per state, into a pooled scratch (ParallelBFS workers call
// one Expander concurrently), shares it between all the seeds it tries, and
// allocates only the subset it returns. The chosen ample set itself is not
// cached across states: a key for it would have to hold every
// state-dependent pick (enabled set, local-guard outcomes, pending senders
// per member), and computing those picks is all the work there is.
//
// The expander implements the ample-set provisos: C2 (a reduced ample set
// must contain no property-visible transition) here, and C3 (the ignoring
// proviso) in cooperation with the engines of package explore. C3 demands
// that deferred events cannot be ignored forever around a cycle, and each
// engine discharges it with the discipline matching its search order: the
// DFS engines (DFS and NDFS) promote a reduced expansion to a full one when some successor is on the
// search stack (the classic stack/cycle proviso), while BFS and
// ParallelBFS promote when every successor of a reduced expansion was
// already visited before the expanded node's level began (the queue
// proviso — if nothing new is enqueued, the deferred events would never be
// retried). Both disciplines make the reduction sound on cyclic state
// graphs; promoted expansions are reported in Stats.ProvisoExpansions.
//
// The same two conditions carry the reduction from safety to liveness
// checking: liveness.Instrument marks every transition the property reads
// as Visible (so C2 keeps it out of reduced ample sets), and the stack
// proviso is exactly the cycle condition the nested-DFS engines need —
// a reduced expansion never hides an accepting cycle from explore.NDFS,
// as the differential tests against the Büchi-product oracle pin down.
//
// In the store matrix (see package explore's doc), static reduction is
// store-agnostic: the expander only narrows which events an engine
// executes, never how states are keyed or remembered, so SPOR composes
// with every store tier — including the lossy bitstate tier, where the
// reduction shrinks the state space before the bit array ever sees it —
// and with both Canon users (symmetry, collapse compression).
package por

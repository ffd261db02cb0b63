// Package dpor implements dynamic partial-order reduction in the style of
// Flanagan and Godefroid (POPL 2005), the algorithm the paper uses for its
// single-message baselines (Table I, "No quorum (DPOR)").
//
// DPOR computes reduced expansion sets on the fly: the search starts each
// state with a single scheduled event and, whenever an executed event races
// with an earlier one on the stack (dependent, not ordered by
// happens-before, and co-enabled), schedules the racing event as a
// backtrack point at the earlier state. Happens-before is tracked with
// vector clocks over program order and send→consume edges.
//
// As in the paper (§III-A), DPOR requires stateless search — it is unsound
// with a visited-state set — so states are revisited along different paths
// and the reported state count is node visits, matching how Table I counts
// the Basset/DPOR column. And as in Basset, quorum transitions are not
// supported: Explore rejects protocols that declare any (Table I, fn. 2).
//
// # One walk
//
// Explore is one sequential walk (engine.run). Everything path-dependent —
// vector clocks, race detection, backtrack and sleep sets — lives on its
// stack, and Options.Workers is ignored: the facade parallelizes only
// SearchBFS.
//
// In the store matrix (see package explore's doc), DPOR occupies the
// no-store column: statelessness is not an implementation detail but the
// soundness argument itself, which is why the facade rejects every
// visited-store option — exact, spill, lossy bitstate and collapse
// compression alike — when SearchDPOR is selected.
package dpor

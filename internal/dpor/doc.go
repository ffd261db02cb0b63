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
// # Speculation and commit
//
// Explore and ExploreParallel are one walk (engine.run): sequential DPOR,
// which takes a state's expansion record from the speculation kernel of
// package explore (explore.Speculation) when one is attached and computes
// it inline otherwise. ExploreParallel attaches the kernel; this package
// supplies only what is DPOR's own (spec.go): the steal target — a
// backtrack point the walk has scheduled at a frame it has not returned to
// yet, which a worker executes to get a state — and the record — enabled
// events, executed successors, invariant checks and sent-message keys, all
// deterministic functions of a state alone. The memo, the steal queue, the
// worker pool and the steal loop are the kernel's. Everything
// path-dependent (vector clocks, race detection, backtrack and sleep sets)
// stays inside the walk, so a record can be missing but never wrong, and
// verdicts, deterministic statistics and counterexample traces are
// bit-identical to Explore for any worker count.
//
// In the store matrix (see package explore's doc), DPOR occupies the
// no-store column: statelessness is not an implementation detail but the
// soundness argument itself, which is why the facade rejects every
// visited-store option — exact, spill, lossy bitstate and collapse
// compression alike — when SearchDPOR is selected.
package dpor

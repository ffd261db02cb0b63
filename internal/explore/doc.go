// Package explore provides the explicit-state search engines of the model
// checker: stateful DFS and BFS over canonical state keys, a stateless DFS
// (the search mode required by dynamic POR, §III-A), a deterministic
// frontier-parallel BFS, nested DFS for Büchi liveness properties (NDFS),
// invariant checking with counterexample traces, deadlock detection, and a
// full state-graph builder used to validate transition refinement
// (Theorem 2: refined and unrefined systems generate the same state graph).
//
// Searches are parameterized by an Expander, the hook through which
// partial-order reduction restricts the explored events of a state. Every
// stateful engine enforces the ignoring proviso (ample condition C3) with
// the discipline matching its search order, exposed through the Proviso
// hook and reported as Stats.ProvisoExpansions: the DFS engines fully
// expand a state whenever a reduced expansion would close a cycle on the
// search stack (the stack proviso), while BFS and ParallelBFS fully expand
// a state whenever a reduced expansion yields only states already visited
// before the state's level began (the queue proviso). Either way a
// reducing expander is sound on cyclic state graphs.
//
// ParallelBFS scales the stateful BFS across a worker pool
// (Options.Workers): each frontier is expanded concurrently against a
// sharded, mutex-striped visited-state store (ShardedStore, in exact-key
// and 128-bit-fingerprint modes), and a deterministic in-order merge
// commits each level so verdicts, statistics and counterexample traces are
// bit-identical to the sequential BFS for any worker count — the queue
// proviso included, which is evaluated after the level barrier against the
// level-start visited snapshot rather than the live concurrent store.
//
// # One sequential walk per depth-first engine
//
// DFS, NDFS, StatelessDFS and dpor.Explore are each one sequential walk:
// the search stack is the state, so the stack proviso, visit order, limits
// and DPOR's clocks live in one goroutine and need no synchronization.
// Options.Workers parallelizes ParallelBFS only; every other engine
// ignores it.
//
// NDFS lifts the stateful DFS to liveness checking (Options.Property): a
// blue search explores the product of the state graph and the property
// monitor, and at each post-order retreat from an accepting product state
// a red search hunts for a cycle through it; a hit is reported as a
// replayable lasso counterexample (stem + accepting cycle, or a stutter
// lasso into a deadlocked accepting state). The stack ignoring proviso
// doubles as the cycle-awareness the nested search needs, so a reducing
// expander remains sound; weak fairness (Property.WeakFair) forces full
// expansion, since the fairness monitor observes every transition. NDFS is
// differentially tested against the explicit Büchi-product + Tarjan-SCC
// oracle in package liveness.
//
// ParallelBFS inherits its soundness conditions from the hooks it
// parallelizes: the protocol's Enabled/Execute/CheckInvariant, the Canon
// function and the Expander must be stateless or read-only (true of
// everything in this repository).
//
// # The store matrix
//
// Every stateful engine takes its visited set through the Store interface,
// and the tiers trade memory against exactness:
//
//   - ExactStore keeps full canonical keys — the reference tier, and the
//     only one whose Len is a census by construction;
//   - HashStore keeps 128-bit fingerprints (collisions are possible in
//     principle, vanishingly rare in practice, and flagged nowhere — it is
//     the default because at 16 bytes/state the differential suites have
//     never produced a collision);
//   - ShardedStore / ShardedHashStore stripe either of the above across
//     mutexes for ParallelBFS;
//   - SpillStore bounds resident memory and overflows to sorted runs on
//     disk (SpillReporter surfaces the traffic in Stats);
//   - BitstateStore is the deliberately lossy tier: Spin-style bitstate
//     hashing in a fixed budget, where a run's "no violation" is a
//     coverage claim qualified by Stats.BitstateFill/BitstateOmission, and
//     which the facade therefore refuses to combine with DPOR, stateless
//     search or liveness properties.
//
// DFS and BFS ask the store about a successor before they keep it: each
// chosen event is stepped into one reused core.StepBuffer, the transient
// view is canonicalized, and when the store is a HasStore that already
// holds the key, only the event and key are kept and the successor counts
// as a revisit without a second probe. Stores are insert-only, so this
// drops exactly the successors a later Seen would have reported present:
// counts, traces and the provisos are those of keeping every successor.
// The other engines, and stores without Has, keep every successor.
//
// Orthogonally, the Canon hook rewrites the key the store sees: package
// symmetry canonicalizes orbits, and Collapser (collapse compression, in
// the sense of Spin's COLLAPSE mode) interns per-process components so a
// key costs a few bytes instead of the full state encoding. Compressed
// keys are run-internal names — injective within a run, meaningless
// outside it — so counterexample traces are expanded back
// (Collapser.ExpandTrace) before they are reported or replayed, and the
// two Canon users cannot be stacked.
//
// Which engine, store tier and Canon user a run gets, and which pairings
// are refused, is decided in one place outside this package: the rules and
// engines tables of the mpbasset facade (mpbasset.Options.Validate,
// mpbasset.Prepare). This package offers the parts and rejects nothing;
// the CLIs and eval reach the engines only through the facade.
//
// Neighbouring packages place themselves in this matrix in their own
// docs: por (static reduction feeding the Expander hook), dpor (stateless
// dynamic reduction, incompatible with every store tier), liveness
// (exact-store-only products), eval (the benchmark cells that sweep the
// matrix), and symmetry/refine (the orthogonal reductions).
package explore

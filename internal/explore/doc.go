// Package explore provides the explicit-state search engines of the model
// checker: stateful DFS and BFS over canonical state keys, a stateless DFS
// (the search mode required by dynamic POR, §III-A), a deterministic
// parallel engine for each stateful search order (frontier-parallel BFS
// and speculative parallel DFS), nested DFS for Büchi liveness properties
// (NDFS, with its deterministic parallel twin ParallelNDFS), invariant
// checking with counterexample traces, deadlock detection, and a full
// state-graph builder used to validate transition refinement (Theorem 2:
// refined and unrefined systems generate the same state graph).
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
// # One walk per engine family, one speculation kernel
//
// The depth-first engines come in sequential/parallel pairs — DFS and
// ParallelDFS, NDFS and ParallelNDFS, dpor.Explore and
// dpor.ExploreParallel — and each pair is one walk: a single function (dfs,
// ndfs, dpor's engine.run) that decides everything observable and asks an
// optional *Speculation for a state's expansion record before computing it
// inline. The sequential entry point passes nil; the parallel one starts
// the kernel (Speculate) and passes it. There is no second search loop.
//
// The kernel (spec.go) is the whole speculation side, written once: the
// striped memo of expansion records, the bounded deep-end steal queue, the
// worker pool, the budgeted depth-first steal loop, Take/Publish/Close and
// the two volatile counters Stats.SpeculatedVisits/SpeculationHits. An
// engine supplies a SpecEngine — its node and record types and the four
// things the engines genuinely disagree on: how a stolen target becomes a
// node (DPOR executes the stolen backtrack event; for DFS and NDFS a
// pending sibling already is one), the node's memo key, an optional
// "already committed" store probe, and Build, which computes a node's
// record and its child nodes. The engine's side of the contract is that
// Build is a pure function of the node; the kernel's is that a record is
// built from its node alone — on any worker, in any order — memoized under
// that node's key (the first one wins) and handed to the walk at most
// once. Records are therefore never wrong, only possibly missing, and the
// committed verdict, deterministic statistics and traces are bit-identical
// to the sequential engine for any worker count and steal depth (see
// Speculation for the full contract). The stack proviso, visit order,
// limits and DPOR's clocks never leave the walk.
//
// NDFS lifts the stateful DFS to liveness checking (Options.Property): a
// blue search explores the product of the state graph and the property
// monitor, and at each post-order retreat from an accepting product state
// a red search hunts for a cycle through it; a hit is reported as a
// replayable lasso counterexample (stem + accepting cycle, or a stutter
// lasso into a deadlocked accepting state). The stack ignoring proviso
// doubles as the cycle-awareness the nested search needs, so a reducing
// expander remains sound; weak fairness (Property.WeakFair) forces full
// expansion, since the fairness monitor observes every transition.
// ParallelNDFS speculates on the blue search only and keeps the red
// searches on the commit walk; both engines are differentially tested
// against the explicit Büchi-product + Tarjan-SCC oracle in package
// liveness.
//
// All parallel engines inherit their soundness conditions from the hooks
// they parallelize: the protocol's Enabled/Execute/CheckInvariant, the
// Canon function and the Expander must be stateless or read-only (true of
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
//     mutexes for the parallel engines;
//   - SpillStore bounds resident memory and overflows to sorted runs on
//     disk (SpillReporter surfaces the traffic in Stats);
//   - BitstateStore is the deliberately lossy tier: Spin-style bitstate
//     hashing in a fixed budget, where a run's "no violation" is a
//     coverage claim qualified by Stats.BitstateFill/BitstateOmission, and
//     which the facade therefore refuses to combine with DPOR, stateless
//     search or liveness properties.
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

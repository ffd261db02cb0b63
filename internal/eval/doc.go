// Package eval defines the paper's evaluation as executable experiments:
// the quorum-semantics comparison of Table I, the transition-refinement
// comparison of Table II, the interleaving-cost analysis of §II-C, and
// the repo's own store-tier table (collapse compression and lossy
// bitstate sweeps). cmd/mpbench prints the tables and gates their
// verdicts and counts against a committed baseline (compare.go); the root
// bench_test.go exposes each row as a Go benchmark.
//
// The package is part of the determinism contract (it appears in the lint
// suite's deterministic allowlist) and is also the contract's arbiter: it
// owns the canonical partition of result statistics into
// DeterministicStatsFields — bit-identical across engines, worker counts
// and exact store tiers, enforced cell-by-cell by the baseline
// gate in compare.go — and VolatileStatsFields, the timing, spill and
// bitstate-coverage numbers that legitimately drift. The statsmask lint
// analyzer cross-checks that partition against explore.Stats, so a new
// statistic cannot ship without being classified.
//
// In the engine/store matrix, eval is the row driver: every cell it emits
// names one engine (DFS, BFS, their parallel twins, DPOR, NDFS) crossed
// with one reduction (none, SPOR, refinement, symmetry) and one store
// tier (exact, fingerprint, sharded, spill, bitstate) or compression
// mode. A cell never builds any of those itself: it maps eval.Options onto
// mpbasset.Options and calls mpbasset.Check, so the facade's rule table
// (mpbasset.Options.Validate) is the one place a combination is accepted
// or refused — a refused cell carries the rejection as its Err, and
// Options.Validate lets mpbench ask before running anything.
package eval

// Package lint is the project's static-analysis suite (mplint): nine
// analyzers that enforce, at review time, the contracts the differential
// and fuzz suites (FuzzEngineAgreement, the spill/parallel matrices, the
// bench determinism gate) otherwise catch only after a nondeterminism or
// soundness bug has already shipped.
//
// # The deterministic closure
//
// Most contracts only bind on code that runs under the model-checking
// engines. Early versions scoped them with a package allowlist, which
// both over-approximated (helpers in internal/explore that no engine
// reaches) and under-approximated (a protocol's Clone in
// internal/protocols runs under every engine, but lived outside the
// list). The suite now computes the real thing: BuildFacts extracts a
// per-package call-graph summary — direct calls, calls through named
// interfaces (iface: nodes, resolved against every in-module
// implementation recorded in the facts), and functions assigned into
// func-typed struct fields (field: nodes, the core.Protocol /
// core.Transition callback tables, including literals inside
// package-level table variables) — and EmitClosure resolves the
// transitive closure of the engine entry points over the merged facts
// of a package and its dependencies.
//
// DefaultEntryPoints declares the roots, matched by import-path suffix:
//
//   - functions: the search drivers (internal/explore BFS, DFS,
//     ParallelBFS, NDFS), internal/dpor Explore/ExploreWith,
//     internal/liveness.Oracle;
//   - interfaces: internal/explore.Store, internal/explore.Expander,
//     internal/core.LocalState — every method of every in-module
//     implementing type is an entry point and a dispatch target;
//   - callback structs: internal/core.Protocol, internal/core.Transition,
//     internal/liveness.Property, internal/explore.Options — a function
//     assigned into a func-typed field becomes an entry point of the
//     assigning package.
//
// ParseEntryPoints extends the roots from the -entrypoints flag
// (func:pkg.Name | iface:pkg.Name | struct:pkg.Name, bare items meaning
// func:), which both drivers accept and `go vet` forwards.
//
// # The analyzers
//
// Closure-scoped (fire only on functions the engines can reach):
//
//   - maporder — the determinism contract. Verdicts, stats and traces
//     must be bit-identical across engines, workers, schedulers and
//     store tiers; a `range` over a map whose iteration order reaches
//     any output breaks that silently. Order-free shapes (key collection
//     for sorting, keyless counting) are recognized; everything else
//     needs `//lint:nondet-ok <reason>`.
//
//   - wallclock — the same contract against the clock: time.Now/Since &
//     friends and math/rand are banned on engine paths, except inside
//     the limiter/limits budget trackers whose output is already masked,
//     or under `//lint:wallclock-ok <reason>`.
//
//   - ptraddr — the same contract against the allocator: %p (and %v on
//     pointer-to-scalar, chan or func values), uintptr(unsafe.Pointer)
//     conversions, and pointer-keyed maps leak heap addresses — values
//     that differ across runs and hosts — into output or branching, and
//     pointer-keyed maps additionally compare by identity where the
//     engines need value semantics. `//lint:ptraddr-ok <reason>`.
//
//   - selectorder — a select with two or more ready-capable cases picks
//     uniformly at random by language spec; on an engine path that is a
//     scheduling decision the determinism argument must account for.
//     `//lint:select-ok <reason>` records why the choice is
//     outcome-neutral.
//
//   - exhaustive — an expression switch over an in-module named constant
//     type (verdicts, proviso kinds, probe results) must handle every
//     declared constant; `default:` does not count. A new enum value
//     silently falling through is exactly how a soundness hole ships.
//     `//lint:exhaustive-ok <reason>`.
//
//   - lockorder — two sync.Mutex/RWMutex locks acquired in both orders
//     anywhere in a package (interprocedurally, following one level of
//     same-package calls made under a held lock) is a latent deadlock in
//     the parallel engines, as is nested acquisition of two locks of the
//     same class. `//lint:lockorder-ok <reason>`.
//
// Globally scoped:
//
//   - statsmask — every explore.Stats field must be classified in
//     internal/eval/compare.go as compared or masked; a field in neither
//     list escapes both the determinism guarantee and the mask. No
//     annotation escape: the fix is to classify the field.
//
//   - storecontract — Store.Has is a hint (wrappers degrade it,
//     concurrent inserts race it); authoritative branching on it is only
//     sound where the algorithm tolerates stale answers. Still scoped to
//     the deterministic packages by suffix. `//lint:has-ok <reason>`.
//
//   - deferrederr — a function returning error must not drop a deferred
//     Close error. `//lint:closeerr-ok <reason>`.
//
// Every suppression marker requires a reason; a bare annotation is
// itself reported, so `make lint` passing means every exception in the
// tree is explained at its site. Markers stack: the contiguous block of
// //lint: lines directly above a flagged line is searched, which is
// where ApplyFixes (-fix) inserts its idempotent TODO annotations.
//
// # How the closure crosses build-unit boundaries
//
// The two drivers share one mechanism. A closure-scoped analyzer calls
// Pass.ReportfClosure, which records a pending diagnostic (keyed by the
// enclosing function) into the package's facts instead of reporting it.
// The standalone driver (RunModule/RunPackages) holds every package's
// facts at once and resolves each package's closure against its
// transitive dependencies, deduplicating globally. The unitchecker
// driver (RunUnitchecker, the `go vet -vettool` protocol) serializes
// facts through vetx files — each unit re-exports its dependencies'
// facts plus its own — and emits, at each unit that declares entry
// points, the pendings its entries reach over the full view minus what
// the dependencies' own roots already covered over the dependencies'
// view. A driver-equality test pins both modes to identical finding
// sets over a real module.
//
// Known limitations: in vet mode a finding can occasionally print at two
// units when reachability to it materializes independently on parallel
// import paths (benign: `go vet` output, and a clean tree has nothing to
// duplicate); interface dispatch through interfaces outside the entry
// spec is only resolved at units that see both the call and the
// implementation's facts.
//
// # Adding a closure-aware analyzer
//
// Set Closure: true on the Analyzer, report through ReportfClosure, and
// register a suppression marker in suppressionMarker if the contract has
// an escape hatch. When Pass.facts is nil (the ad-hoc RunAnalyzers entry
// point without the facts pipeline), ReportfClosure degrades to an
// unconditional report — a conservative superset, never a silent skip.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// diagnostics) but is implemented on the standard library alone, keeping
// the module dependency-free and buildable offline; if the x/tools
// dependency ever lands, the analyzers port over mechanically. Drivers:
// Load (standalone, `go list` + source typechecking in dependency
// order), RunUnitchecker (the vet unit protocol against compiler export
// data), and cmd/mplint, which fronts both and additionally emits SARIF
// 2.1.0 (-sarif standalone; MPLINT_SARIF_DIR per-unit fragments merged
// by -merge-sarif in vet mode). Package linttest runs the
// analysistest-style fixture suites under testdata/.
package lint

// Package mpbasset is a Go reproduction of the MP-Basset model checker
// from Bokor, Kinder, Serafini and Suri, "Efficient Model Checking of
// Fault-Tolerant Distributed Protocols" (DSN 2011): explicit-state model
// checking of message-passing protocols with quorum transitions, transition
// refinement (quorum-split and reply-split), static and dynamic
// partial-order reduction, and role-based symmetry reduction.
//
// The package is the high-level facade over the building blocks in
// internal/: define a protocol with core.Protocol (or use the bundled
// Paxos, Echo Multicast and regular-storage models under
// internal/protocols), then verify it:
//
//	p, err := paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1})
//	...
//	res, err := mpbasset.Check(p, mpbasset.Options{Search: mpbasset.SearchSPOR})
//	fmt.Println(res.Verdict, res.Stats.States)
//
// Setting Options.Workers parallelizes SearchBFS: the frontier-parallel
// BFS engine expands each level over a sharded concurrent visited-state
// store and commits it with a deterministic per-level merge, so verdicts,
// state counts and counterexamples are identical to sequential BFS for any
// worker count. Every other search is one sequential walk and runs the same
// with or without Workers. Every stateful engine enforces the ignoring
// proviso, so partial-order reduction stays sound on cyclic state graphs:
// the DFS engines re-expand states whose reduced expansion would close a
// cycle on the search stack, the BFS engines re-expand states whose reduced
// expansion discovers nothing that was unvisited when their level began
// (see Result.Stats.ProvisoExpansions). The facade reduces SearchSPOR only;
// reduced BFS is an option of package internal/explore.
//
// Setting Options.StoreBudgetBytes bounds the visited set's memory
// footprint for beyond-RAM state spaces: the search runs over a two-tier
// spill store whose in-memory hot tier flushes sorted runs of 128-bit
// fingerprints to disk (Options.SpillDir) past the budget, again with
// verdicts, statistics and traces bit-identical to the in-memory stores;
// Result.Stats reports the spill activity.
//
// Setting Options.Property switches from safety to liveness checking: the
// DFS searches run nested depth-first search (blue/red, CVWY) over the
// Büchi product of the protocol and the property, reporting a
// counterexample lasso — a finite stem plus an accepting cycle, with runs
// that halt in an accepting deadlock counted via stutter extension — that
// Result.Trace records and explore.ReplayLasso revalidates. Properties are
// acceptance predicates over states (Eventually builds the common
// "goal is eventually reached" form); Property.WeakFair restricts
// counterexamples to weakly fair schedules. Reduction stays sound:
// properties declare which processes they read, transitions of those
// processes are marked visible (ample-set condition C2), and the same
// stack proviso that protects safety search protects the cycle detection.
// Liveness results are deterministic and bit-identical across stores,
// exactly like safety results.
//
// Check is the only code that turns options into a running search: it
// validates them against one option-compatibility table (Options.Validate),
// then Prepare builds the Plan — refinement, instrumentation, symmetry
// group, POR analysis, engine choice — and Plan.Run picks the store, runs
// the engine, closes the spill tier and decompresses the trace. cmd/mpcheck
// and the mpbench cells are callers of it, so a combination is accepted or
// refused identically through the Go API and the command lines.
//
// See the examples/ directory for complete programs and cmd/mpcheck for
// the command-line interface.
package mpbasset

import (
	"errors"
	"fmt"
	"time"

	"mpbasset/internal/core"
	"mpbasset/internal/dpor"
	"mpbasset/internal/explore"
	"mpbasset/internal/liveness"
	"mpbasset/internal/por"
	"mpbasset/internal/refine"
	"mpbasset/internal/symmetry"
)

// Re-exported core types, so that typical users only import this package
// plus a protocol package.
type (
	// Protocol is a message-passing protocol model (see internal/core).
	Protocol = core.Protocol
	// Transition is a guarded atomic event of one process.
	Transition = core.Transition
	// Message is an in-flight message.
	Message = core.Message
	// ProcessID identifies a process.
	ProcessID = core.ProcessID
	// Result is the outcome of a search.
	Result = explore.Result
	// Verdict classifies a search outcome.
	Verdict = explore.Verdict
	// SplitStrategy selects a transition-refinement strategy.
	SplitStrategy = refine.Strategy
	// Property is a Büchi liveness property: an acceptance predicate over
	// states, optionally under weak fairness (see internal/liveness).
	Property = liveness.Property
	// State is a global protocol state, as passed to property predicates.
	State = core.State
)

// Eventually builds the liveness property "the goal predicate is
// eventually reached": a counterexample is an execution that defers the
// goal forever. reads must list the processes the goal predicate inspects,
// so partial-order reduction stays sound for the property.
var Eventually = liveness.Eventually

// Search outcomes.
const (
	VerdictVerified = explore.VerdictVerified
	VerdictViolated = explore.VerdictViolated
	VerdictLimit    = explore.VerdictLimit
)

// Split strategies (paper §III: Table II's unsplit / reply-split /
// quorum-split / combined-split).
const (
	SplitNone     = refine.None
	SplitReply    = refine.Reply
	SplitQuorum   = refine.Quorum
	SplitCombined = refine.Combined
)

// Search selects a search engine.
type Search int

const (
	// SearchSPOR is stateful DFS with static partial-order reduction (the
	// paper's MP-LPOR analogue) — the default.
	SearchSPOR Search = iota + 1
	// SearchUnreduced is plain stateful DFS.
	SearchUnreduced
	// SearchBFS is stateful BFS (shortest counterexamples), unreduced:
	// Prepare attaches the static POR expander for SearchSPOR only, which
	// always runs DFS. Reduced BFS, with the queue variant of the ignoring
	// proviso, is an option of package internal/explore only
	// (explore.Options.Expander).
	SearchBFS
	// SearchStateless is depth-first search without a visited set.
	SearchStateless
	// SearchDPOR is stateless search with dynamic partial-order reduction
	// (single-message models only, as in Basset).
	SearchDPOR
)

// Options configures Check. An option that cannot apply to the selected
// search or store is rejected, never ignored: the rules table below is the
// one statement of which combinations exist, and Validate evaluates it.
type Options struct {
	// Search selects the engine; default SearchSPOR.
	Search Search
	// Split applies a transition refinement before checking; default
	// SplitNone. Refinement never changes the state graph (Theorem 2),
	// only the reduction.
	Split SplitStrategy
	// SymmetryRoles enables role-based symmetry reduction over the given
	// groups of interchangeable processes.
	SymmetryRoles [][]ProcessID
	// BestSeed makes the static POR try every seed and keep the smallest
	// ample set.
	BestSeed bool
	// TrackTrace records parent links so BFS can reconstruct
	// counterexamples (DFS variants always can).
	TrackTrace bool
	// Workers > 0 runs SearchBFS on the frontier-parallel BFS engine with
	// that many workers, over a sharded concurrent visited-state store
	// (deterministic per-level merge, identical to sequential BFS for any
	// worker count). Every other search accepts Workers and ignores it:
	// DFS, nested DFS, stateless search and DPOR are each one sequential
	// walk (-workers in the CLIs).
	Workers int
	// ChunkSize fixes how many frontier nodes a parallel BFS worker claims
	// per grab; 0 means adaptive (frontier/(workers*8), clamped to
	// [1, 1024]). Only accepted with Workers > 0 and SearchBFS.
	ChunkSize int
	// BatchSize is the number of successor keys a parallel BFS worker
	// buffers before a batched visited-set insert (one stripe lock per
	// batch instead of per key); 0 means the default of 64. Only accepted
	// with Workers > 0 and SearchBFS.
	BatchSize int
	// ExactStates stores full state keys instead of 128-bit fingerprints
	// (more memory, zero collision risk). Incompatible with
	// StoreBudgetBytes: the spill tier stores fingerprints only.
	ExactStates bool
	// StoreBudgetBytes > 0 bounds the visited set's in-memory footprint:
	// the search runs over a two-tier explore.SpillStore whose hot tier
	// spills sorted runs of 128-bit fingerprints to disk when it exceeds
	// the budget, letting runs explore state spaces far beyond RAM.
	// Verdicts, search statistics and traces are bit-identical to the
	// in-memory stores for every stateful search, sequential or parallel;
	// Result.Stats reports the spill activity (SpillRuns, SpillBytes,
	// DiskProbes). Stateless and DPOR searches keep no visited set and
	// reject the option.
	StoreBudgetBytes int64
	// SpillDir is the directory for the spill store's run files; empty
	// means a fresh temporary directory, removed when the check returns.
	// Only meaningful (and only accepted) with StoreBudgetBytes > 0.
	SpillDir string
	// Compress enables collapse-style state compression (-compress): a
	// shared intern table dedupes each process's local-state component and
	// the message-bag component across states, so the canonical key a state
	// contributes to the visited store, the fingerprint hash and the spill
	// tier shrinks to a few decimal component IDs. Exact-mode semantics are
	// unchanged — the compressed mapping is injective, so verdicts, every
	// statistic and the explored state space are bit-identical to the
	// uncompressed run — and counterexample traces are transparently
	// decompressed before Check returns, so trace consumers (Replay, DOT
	// rendering) see full canonical keys. Works with every store tier and
	// every stateful search; incompatible with SymmetryRoles (symmetry
	// installs its own canonicalizer) and rejected by the stateless and
	// DPOR searches, which it could not speed up.
	Compress bool
	// Lossy switches the visited set to an explicitly lossy Spin-style
	// bitstate/hash-compaction store (-lossy): k hash probes per state over
	// a fixed bit array sized by BitstateBytes. Memory never grows past the
	// budget, so coverage sweeps can run far beyond exact-store limits, but
	// distinct states may collide and be silently skipped — a lossy
	// "Verified" is a coverage claim, not a verdict, and Result.Stats
	// reports the bit array's fill ratio and estimated omission probability
	// (BitstateFill, BitstateOmission) so the claim can be judged. A
	// reported violation is still real and its trace replays like any
	// other. Rejected wherever soundness demands an exact visited set:
	// stateless and DPOR searches, liveness properties (Property), and the
	// exact-trace options ExactStates and StoreBudgetBytes.
	Lossy bool
	// BitstateBytes sizes the lossy store's bit array in bytes
	// (-bitstate-bytes); 0 means 64 MiB. Only meaningful (and only
	// accepted) with Lossy.
	BitstateBytes int64
	// MaxStates bounds the number of explored states; 0 = unlimited.
	MaxStates int
	// MaxDuration bounds the wall-clock time; 0 = unlimited.
	MaxDuration time.Duration
	// Property, when non-nil, checks this Büchi liveness property instead
	// of the protocol's safety invariant. Only the DFS searches (SearchSPOR,
	// SearchUnreduced) support it — they run nested depth-first search —
	// and the protocol is automatically instrumented for the property (its
	// transitions marked visible) before any reduction is built. A counterexample is a lasso:
	// Result.Trace holds stem + cycle, with Result.CycleLen and
	// Result.Stutter describing the cycle. When Property.WeakFair is set the
	// search ignores reduction and explores the full state graph: the
	// fairness monitor observes every transition, so no transition is
	// invisible in the product and the ample-set condition C2 admits no
	// reduction.
	Property *Property
}

// facts is the bit set the rule and engine tables are written over: which
// search family an Options value selects and which optional features it
// sets. Computing it once keeps rule evaluation allocation-free.
type facts uint32

const (
	searchDFS facts = 1 << iota // SearchSPOR (the default) or SearchUnreduced
	searchBFS
	searchStateless
	searchDPOR
	hasWorkers
	hasChunkSize
	hasBatchSize
	hasExactStates
	hasBudget
	hasSpillDir
	hasCompress
	hasLossy
	hasBitstateBytes
	hasSymmetry
	hasProperty

	searchStateful = searchDFS | searchBFS
	searchKnown    = searchStateful | searchStateless | searchDPOR
)

func (o *Options) facts() facts {
	var f facts
	switch o.Search {
	case 0, SearchSPOR, SearchUnreduced:
		f = searchDFS
	case SearchBFS:
		f = searchBFS
	case SearchStateless:
		f = searchStateless
	case SearchDPOR:
		f = searchDPOR
	}
	for _, b := range [...]struct {
		set bool
		bit facts
	}{
		{o.Workers > 0, hasWorkers},
		{o.ChunkSize != 0, hasChunkSize},
		{o.BatchSize != 0, hasBatchSize},
		{o.ExactStates, hasExactStates},
		{o.StoreBudgetBytes > 0, hasBudget},
		{o.SpillDir != "", hasSpillDir},
		{o.Compress, hasCompress},
		{o.Lossy, hasLossy},
		{o.BitstateBytes != 0, hasBitstateBytes},
		{o.SymmetryRoles != nil, hasSymmetry},
		{o.Property != nil, hasProperty},
	} {
		if b.set {
			f |= b.bit
		}
	}
	return f
}

// rules is the option-compatibility table, the one source of truth for
// which Options (and therefore which mpcheck/mpbench flags) combine. A row
// is violated when every fact in given holds and none in needs does, so
// needs == 0 states a plain conflict and given == 0 an unconditional
// requirement. Rows are checked in order, before anything fallible or
// resource-owning is built; each message names the Go field and its CLI
// flag. See the store/engine matrix in package explore's doc for why the
// excluded combinations are excluded.
var rules = [...]struct {
	given, needs facts
	msg          string
}{
	{0, searchKnown, "Search (-search) must be SearchSPOR, SearchUnreduced, SearchBFS, SearchStateless or SearchDPOR"},
	{hasProperty, searchDFS, "Property (-property) requires a DFS search (SearchSPOR or SearchUnreduced): liveness checking runs nested depth-first search"},
	{hasSpillDir, hasBudget, "SpillDir (-spill-dir) requires StoreBudgetBytes (-mem-budget): the spill directory is meaningless without a memory budget"},
	{hasBitstateBytes, hasLossy, "BitstateBytes (-bitstate-bytes) requires Lossy (-lossy): the bit-array budget is meaningless without the lossy store"},
	{hasLossy, searchStateful, "Lossy (-lossy) requires a stateful search (stateless and DPOR searches keep no visited set)"},
	{hasLossy | hasProperty, 0, "Lossy (-lossy) is incompatible with Property (-property): nested DFS cycle detection needs an exact visited set"},
	{hasLossy | hasExactStates, 0, "Lossy (-lossy) is incompatible with ExactStates: the bitstate store keeps hash probes, not states"},
	{hasLossy | hasBudget, 0, "Lossy (-lossy) is incompatible with StoreBudgetBytes (-mem-budget): the bitstate store never grows, size it with BitstateBytes (-bitstate-bytes) instead"},
	{hasCompress, searchStateful, "Compress (-compress) requires a stateful search (stateless and DPOR searches keep no visited set to compress)"},
	{hasCompress | hasSymmetry, 0, "Compress (-compress) is incompatible with SymmetryRoles (-symmetry): symmetry reduction installs its own canonicalizer"},
	{hasBudget | hasExactStates, 0, "StoreBudgetBytes (-mem-budget) is incompatible with ExactStates: the spill tier stores 128-bit fingerprints only"},
	{hasBudget, searchStateful, "StoreBudgetBytes (-mem-budget) requires a stateful search (stateless and DPOR searches keep no visited set to spill)"},
	{hasChunkSize, hasWorkers, "ChunkSize (-chunk) requires Workers (-workers): it tunes the parallel BFS scheduler's claim size"},
	{hasChunkSize, searchBFS, "ChunkSize (-chunk) requires SearchBFS (-search bfs): it tunes the parallel BFS frontier scheduler"},
	{hasBatchSize, hasWorkers, "BatchSize (-batch) requires Workers (-workers): it tunes the parallel BFS visited-set insert batching"},
	{hasBatchSize, searchBFS, "BatchSize (-batch) requires SearchBFS (-search bfs): it tunes the parallel BFS insert batching"},
}

// Validate reports the first row of the option-compatibility table that o
// violates, or nil. Check and Prepare call it first; the CLIs reach it
// through them, so a combination is refused with the same message whether
// it arrives through the Go API or a command line.
func (o *Options) Validate() error {
	f := o.facts()
	for i := range rules {
		if r := &rules[i]; f&r.given == r.given && f&r.needs == 0 {
			return errors.New("mpbasset: " + r.msg)
		}
	}
	return nil
}

// engine is one search driver and the facts that select it.
type engine struct {
	on   facts
	name string
	run  func(*core.Protocol, explore.Options) (*explore.Result, error)
}

// engines lists the six search engines; the first row whose facts all
// hold is the one a validated Options value runs. Workers selects the
// frontier-parallel BFS engine, which reproduces sequential BFS
// bit-identically; every other search has one engine. A liveness property
// swaps DFS for nested DFS (NDFS).
var engines = [...]engine{
	{searchDFS | hasProperty, "NDFS", explore.NDFS},
	{searchDFS, "DFS", explore.DFS},
	{searchBFS | hasWorkers, "frontier-parallel BFS", explore.ParallelBFS},
	{searchBFS, "BFS", explore.BFS},
	{searchStateless, "stateless DFS", explore.StatelessDFS},
	{searchDPOR, "DPOR", dpor.Explore},
}

// Plan is a validated check with every pure build step done — refinement,
// property instrumentation, the symmetry group, the static POR analysis,
// the engine choice — and nothing resource-owning acquired yet; Run
// executes it.
type Plan struct {
	opts   Options
	p      *Protocol
	xo     explore.Options // everything but Store and the collapse canon
	engine *engine
	perms  int
}

// Prepare validates opts against the option-compatibility table and builds
// the Plan for checking p. It is the only code that turns options into a
// search: Check, cmd/mpcheck and the mpbench cells all go through it.
func Prepare(p *Protocol, opts Options) (*Plan, error) {
	if p == nil {
		return nil, errors.New("mpbasset: nil protocol")
	}
	err := opts.Validate()
	if err != nil {
		return nil, err
	}
	if opts.Split != SplitNone {
		if p, err = refine.Split(p, opts.Split); err != nil {
			return nil, err
		}
	}
	if opts.Property != nil {
		// Instrument before the expander is built, so the property-visible
		// marks constrain the reduction (ample-set condition C2).
		if p, err = liveness.Instrument(p, opts.Property); err != nil {
			return nil, err
		}
	}
	pl := &Plan{opts: opts, p: p, xo: explore.Options{
		MaxStates:   opts.MaxStates,
		MaxDuration: opts.MaxDuration,
		TrackTrace:  opts.TrackTrace,
		Workers:     opts.Workers,
		ChunkSize:   opts.ChunkSize,
		BatchSize:   opts.BatchSize,
		Property:    opts.Property,
	}}
	if opts.SymmetryRoles != nil {
		canon, err := symmetry.New(p.N, opts.SymmetryRoles)
		if err != nil {
			return nil, err
		}
		pl.xo.Canon = canon.Canon
		pl.perms = canon.NumPermutations()
	}
	if opts.Search == SearchSPOR || opts.Search == 0 {
		exp, err := por.NewExpander(p)
		if err != nil {
			return nil, err
		}
		exp.BestSeed = opts.BestSeed
		pl.xo.Expander = exp
	}
	// Validate admitted only known searches, so some row matches.
	f := opts.facts()
	for i := range engines {
		if e := &engines[i]; f&e.on == e.on {
			pl.engine = e
			break
		}
	}
	return pl, nil
}

// Protocol returns the protocol the search runs on: the caller's, refined
// by Options.Split and instrumented for Options.Property. Counterexample
// traces are over its transitions.
func (pl *Plan) Protocol() *Protocol { return pl.p }

// Engine names the search engine Run drives, e.g. "DFS" or
// "frontier-parallel BFS".
func (pl *Plan) Engine() string { return pl.engine.name }

// Permutations is the size of the symmetry group built from
// Options.SymmetryRoles; 0 without symmetry reduction.
func (pl *Plan) Permutations() int { return pl.perms }

// Run acquires the visited store the options select, runs the search,
// releases the store and returns the result, with compressed trace keys
// already expanded.
func (pl *Plan) Run() (*Result, error) {
	o, xo := &pl.opts, pl.xo
	var coll *explore.Collapser
	if o.Compress {
		coll = explore.NewCollapser()
		xo.Canon = coll.Canon
	}
	// Only the frontier-parallel BFS engine touches the store from more
	// than one goroutine; every other engine gets a plain one.
	parallel := o.Workers > 0 && o.Search == SearchBFS
	var spill *explore.SpillStore
	switch {
	case o.Lossy:
		xo.Store = explore.NewBitstateStore(o.BitstateBytes, 0)
	case o.StoreBudgetBytes > 0:
		var err error
		spill, err = explore.NewSpillStore(explore.SpillConfig{BudgetBytes: o.StoreBudgetBytes, Dir: o.SpillDir})
		if err != nil {
			return nil, err
		}
		xo.Store = spill
	case parallel && o.ExactStates:
		xo.Store = explore.NewShardedExactStore()
	case parallel:
		xo.Store = explore.NewShardedHashStore()
	case o.ExactStates:
		xo.Store = explore.NewExactStore()
	default:
		xo.Store = explore.NewHashStore()
	}
	res, err := pl.engine.run(pl.p, xo)
	// The spill store owns disk state (run files, possibly a temporary
	// directory); release it before handing the result back. Spill
	// activity was already copied into res.Stats by the engine.
	if spill != nil {
		if cerr := spill.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	// Compressed trace keys are run-internal intern-table IDs; decompress
	// them so callers (Replay with a nil canon, DOT rendering) always see
	// the states' full canonical keys, regardless of Compress. This also
	// restores bit-identical traces across worker counts: intern IDs depend
	// on the parallel BFS engine's visit order, full keys do not.
	if coll != nil {
		if xerr := coll.ExpandTrace(res.Trace); xerr != nil {
			return nil, fmt.Errorf("mpbasset: decompressing counterexample trace: %w", xerr)
		}
	}
	return res, nil
}

// Check verifies the protocol's invariant (or Options.Property) over its
// full, possibly reduced, state space and returns the verdict, statistics,
// and — for violations — a counterexample trace. It is Prepare followed by
// Plan.Run.
func Check(p *Protocol, opts Options) (*Result, error) {
	pl, err := Prepare(p, opts)
	if err != nil {
		return nil, err
	}
	return pl.Run()
}

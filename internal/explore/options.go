package explore

import (
	"runtime"
	"time"

	"mpbasset/internal/core"
	"mpbasset/internal/liveness"
)

// Proviso is the ignoring-proviso (C3) hook of a search engine: the
// engine-specific test deciding whether a reduced expansion may be kept or
// must be promoted to a full one so that deferred events cannot be ignored
// forever around a cycle. Each stateful engine supplies its own
// implementation — DFS the classic stack discipline (a reduced expansion
// must not close a cycle onto the search stack), the BFS engines the queue
// proviso (a reduced expansion must discover at least one state that was
// not yet visited when the node's level began). The proviso decision is
// the engine's: it executes the chosen events, queries the hook with the
// successor keys and re-expands fully when the hook reports ignoring.
//
// The hook is also passed to Expander.Expand, but strictly for diagnostics
// (logging, assertions): the event set an expander returns must be a pure
// function of the state and its enabled events, never of the hook's
// answers. Engines hand different implementations to Expand — DFS its live
// stack, ParallelBFS workers an inert one, since no snapshot-consistent
// answer exists mid-level — so conditioning the selection on the hook
// would both lose the bit-identical sequential/parallel guarantee and
// confuse the engine-side proviso accounting.
type Proviso interface {
	// OnStack reports whether the state with the given canonical key is on
	// the current search stack. Engines without a stack (BFS) report false.
	OnStack(key string) bool
	// Ignoring reports whether a reduced expansion that yields exactly the
	// states with the given canonical keys could defer its remaining
	// events forever, in which case the engine re-expands the state fully.
	// DFS: some successor is on the search stack (the reduced expansion
	// would close a cycle). BFS: every successor was already visited when
	// the expanded node's level began (the reduced expansion enqueues
	// nothing new, so the deferred events would never be retried).
	Ignoring(succKeys []string) bool
}

// Expander selects the events to explore from a state. A nil Expander (or
// the FullExpander) yields unreduced search; package por provides the
// stubborn-set expander.
//
// Contract: the returned slice must be a subset of enabled, and must be a
// deterministic function of s and enabled alone — prov is informational
// (see Proviso). Returning a slice of the same length as enabled counts as
// a full expansion.
type Expander interface {
	Expand(s *core.State, enabled []core.Event, prov Proviso) []core.Event
}

// FullExpander explores every enabled event (no reduction).
type FullExpander struct{}

// Expand implements Expander.
func (FullExpander) Expand(_ *core.State, enabled []core.Event, _ Proviso) []core.Event {
	return enabled
}

// Options configures a search.
type Options struct {
	// Expander restricts expansion (POR); nil means full expansion.
	Expander Expander
	// Property is the Büchi liveness property NDFS checks; NDFS requires
	// it and every other engine ignores it. The safety invariant is NOT
	// checked by NDFS — run a safety search separately. When
	// Property.WeakFair is set NDFS ignores Expander and explores the full
	// graph: the fairness monitor observes every transition, so no
	// transition is invisible in the product and the ample-set condition
	// C2 admits no reduction.
	Property *liveness.Property
	// Store is the visited set; nil means a fresh ExactStore. Ignored by
	// stateless search.
	Store Store
	// Canon maps a state to the key used for visited-set membership and
	// stack identity. Nil means core.(*State).Key. Package symmetry
	// provides canonicalizing implementations. DFS and BFS hand Canon the
	// transient view core.Protocol.Step returns (see core.StepBuffer), so
	// Canon must not retain the state or anything reached through it except
	// strings.
	Canon func(*core.State) string
	// MaxStates stops the search after this many distinct states
	// discovered by the run (stateless: visited nodes); 0 means
	// unlimited.
	MaxStates int
	// MaxDepth bounds the search depth, measured in events from the
	// initial state (the initial state is depth 0): states at depth
	// MaxDepth are still visited and invariant-checked, but not expanded,
	// and the run reports VerdictLimit when the bound actually cut
	// something. All engines share this convention. Note that the depth
	// at which a state is first visited is engine-specific: BFS and
	// ParallelBFS visit every state at its shortest-path depth, while DFS
	// visits it at the depth of the first search path that reaches it, so
	// a depth-limited DFS may cut a different (never shallower-reaching)
	// slice of the state space. 0 means unlimited (stateless search
	// defaults to 1 << 20 to guarantee termination on cyclic graphs).
	MaxDepth int
	// MaxDuration stops the search after the given wall-clock time;
	// 0 means unlimited.
	MaxDuration time.Duration
	// TrackTrace records parent links so BFS can reconstruct
	// counterexamples (DFS reconstructs from its stack for free).
	TrackTrace bool
	// Workers is the size of ParallelBFS's worker pool; 0 or negative
	// means runtime.GOMAXPROCS(0). Ignored by every other engine: the
	// depth-first searches (DFS, NDFS, StatelessDFS, dpor.Explore) are one
	// sequential walk each.
	Workers int
	// ChunkSize fixes the number of frontier nodes a ParallelBFS worker
	// claims from its span per grab; 0 or negative means adaptive
	// (len(frontier)/(workers*8), clamped to [1, 1024]). Ignored by every
	// other engine.
	ChunkSize int
	// BatchSize is the number of successor keys a ParallelBFS worker
	// buffers before flushing them through the store's batched insert
	// path (BatchStore.SeenBatch); 0 or negative means the default of 64.
	// 1 degenerates to per-key inserts. Ignored by every other engine.
	BatchSize int
}

func (o *Options) store() Store {
	if o.Store != nil {
		return o.Store
	}
	return NewExactStore()
}

func (o *Options) canon() func(*core.State) string {
	if o.Canon != nil {
		return o.Canon
	}
	return func(s *core.State) string { return s.Key() }
}

func (o *Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// chunkSize resolves the work-stealing claim granularity for a frontier of
// the given size expanded by the given worker count.
func (o *Options) chunkSize(frontier, workers int) int {
	if o.ChunkSize > 0 {
		return o.ChunkSize
	}
	chunk := frontier / (workers * 8)
	if chunk < 1 {
		return 1
	}
	if chunk > 1024 {
		return 1024
	}
	return chunk
}

// batchSize resolves the successor-key buffer size of a work-stealing
// worker.
func (o *Options) batchSize() int {
	if o.BatchSize > 0 {
		return o.BatchSize
	}
	return 64
}

func (o *Options) expander() Expander {
	if o.Expander != nil {
		return o.Expander
	}
	return FullExpander{}
}

// limiter tracks the stop conditions shared by the engines.
type limiter struct {
	maxStates int
	maxDepth  int
	deadline  time.Time
	start     time.Time
	checked   int
}

func newLimiter(o Options) *limiter {
	l := &limiter{maxStates: o.MaxStates, maxDepth: o.MaxDepth, start: time.Now()}
	if o.MaxDuration > 0 {
		l.deadline = l.start.Add(o.MaxDuration)
	}
	return l
}

func (l *limiter) statesExceeded(n int) bool {
	return l.maxStates > 0 && n >= l.maxStates
}

func (l *limiter) depthExceeded(d int) bool {
	return l.maxDepth > 0 && d >= l.maxDepth
}

// timeExceeded polls the clock once every 1024 calls to stay cheap.
func (l *limiter) timeExceeded() bool {
	if l.deadline.IsZero() {
		return false
	}
	l.checked++
	if l.checked&1023 != 0 {
		return false
	}
	return time.Now().After(l.deadline)
}

// deadlinePassed checks the deadline against the clock directly, without
// the stride counter — safe for concurrent use by ParallelBFS workers
// (which amortize the clock read themselves).
func (l *limiter) deadlinePassed() bool {
	return !l.deadline.IsZero() && time.Now().After(l.deadline)
}

func (l *limiter) elapsed() time.Duration { return time.Since(l.start) }

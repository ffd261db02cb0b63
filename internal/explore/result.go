package explore

import (
	"fmt"
	"strings"
	"time"

	"mpbasset/internal/core"
)

// Verdict is the outcome of a search.
type Verdict int

const (
	// VerdictVerified means the full (possibly reduced) state space was
	// explored and no state violated the invariant.
	VerdictVerified Verdict = iota + 1
	// VerdictViolated means a violating state was found; the search
	// stopped at the first counterexample, as in the paper's debugging
	// experiments.
	VerdictViolated
	// VerdictLimit means a state, depth or time limit stopped the search
	// before exhaustion (the analogue of the paper's 48 h timeouts).
	VerdictLimit
)

// String returns the verdict in the paper's table vocabulary.
func (v Verdict) String() string {
	switch v {
	case VerdictVerified:
		return "Verified"
	case VerdictViolated:
		return "CE"
	case VerdictLimit:
		return "Limit"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Step is one edge of a counterexample path.
type Step struct {
	// Event is the executed event.
	Event core.Event
	// StateKey is the canonical key of the state reached by the event.
	StateKey string
}

// Stats aggregates search effort. For stateful searches, States counts the
// distinct states this run visited — the initial state plus every state
// the run newly inserted into the visited store — matching how the paper's
// Tables I/II count states per column. A caller-supplied pre-populated
// (shared or cross-run) store therefore never inflates States or trips
// MaxStates early; its hits surface as Revisits instead. For stateless
// searches States counts visited nodes, including revisits. MaxDepth is
// the depth, in events from the initial state (root = 0), of the deepest
// state the run visited, under each engine's own visit order (BFS engines
// visit states at shortest-path depth; DFS at first-search-path depth).
//
// RedStates counts the distinct product states the nested (red) searches
// of the NDFS liveness engine visited; it is always zero for the safety
// engines. Like every counter except Duration and the spill counters it is
// covered by the determinism guarantee: NDFS reports identical values on
// every store tier.
//
// ProvisoExpansions counts the expansions the ignoring proviso (C3)
// promoted from reduced to full: DFS promotes when a reduced expansion
// would close a cycle onto the search stack, the BFS engines when a
// reduced expansion yields only states already visited at the start of the
// node's level. Each such expansion is also counted in FullExpansions
// (never in ReducedExpansions); the counter is deterministic for every
// engine and worker count.
//
// SpillRuns, SpillBytes and DiskProbes report the disk tier's activity
// when the search ran over a SpillStore (always zero otherwise): sorted
// run files written (merges included), bytes written to disk, and
// membership probes that consulted the disk tier. They describe storage
// effort, not the explored state space: like Duration — and unlike every
// other counter — they are NOT covered by the engines' determinism
// guarantee (in parallel runs the insert timing moves the spill points),
// and the differential test suites mask them when comparing runs.
//
// BitstateFill and BitstateOmission report a lossy store's coverage when
// the search ran over a BitstateStore (always zero otherwise): the bit
// array's fill ratio in [0,1] and the fill^k estimate of the probability
// that a fresh state was wrongly treated as visited. They qualify the
// run's coverage claim rather than describe the explored space, and under
// the parallel engines the visit order moves which states collide — so
// both are volatile and masked like the spill counters.
type Stats struct {
	States            int
	Revisits          int
	Events            int
	Deadlocks         int
	MaxDepth          int
	RedStates         int
	FullExpansions    int
	ReducedExpansions int
	ProvisoExpansions int
	SpillRuns         int
	SpillBytes        int64
	DiskProbes        int64
	BitstateFill      float64
	BitstateOmission  float64
	Duration          time.Duration
}

// Result is the outcome of a search run.
type Result struct {
	Verdict Verdict
	// Violation describes the property violation when Verdict is
	// VerdictViolated: the invariant violation for the safety engines, the
	// accepting-cycle summary for the liveness (NDFS) engines.
	Violation error
	// Trace is the counterexample path from the initial state to the
	// violating state (empty when the initial state itself violates, or
	// when trace tracking was disabled). For liveness violations the trace
	// is a lasso: a stem of len(Trace)-CycleLen steps followed by a cycle
	// of CycleLen steps that returns to the state the stem ends in.
	Trace []Step
	// CycleLen is the length of the lasso's cycle for liveness violations
	// (the final CycleLen steps of Trace); zero for safety violations and
	// for stutter lassos (see Stutter).
	CycleLen int
	// Stutter reports that the liveness counterexample's cycle is the
	// implicit stutter self-loop of a deadlocked accepting state: the stem
	// (all of Trace) ends in a state with no enabled events where the
	// property's acceptance predicate holds forever.
	Stutter bool
	Stats   Stats
}

// TraceString renders the counterexample, one step per line.
func (r *Result) TraceString() string {
	if len(r.Trace) == 0 {
		return "(empty trace)"
	}
	var sb strings.Builder
	for i, st := range r.Trace {
		fmt.Fprintf(&sb, "%3d. %s\n", i+1, st.Event)
	}
	return sb.String()
}

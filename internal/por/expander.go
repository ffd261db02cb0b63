package por

import (
	"math/bits"
	"slices"
	"sort"
	"sync"

	"mpbasset/internal/explore"

	"mpbasset/internal/core"
)

// Expander is the static-POR expander plugged into the searches of package
// explore: at each state it tries seed transitions in heuristic order,
// computes the stubborn set of each candidate, and explores only the
// enabled part (the ample set) of the first candidate that passes the
// reduction and visibility checks.
type Expander struct {
	a         *Analysis
	seedOrder []int
	// BestSeed makes the expander evaluate every enabled seed and keep
	// the smallest valid ample set, instead of the first valid one in
	// heuristic order. More time per state, sometimes fewer states.
	//
	// A note on a design alternative we rejected: a closure that applies
	// enabling-set reasoning only to disabled members (leaving an enabled
	// member's feeders out) looks attractive and reduces much more, but
	// it is unsound for quorum transitions — a feeder can create *new*
	// quorum choices for an already-enabled transition, and dropping it
	// loses those behaviours including deadlock states. The property
	// tests in this package demonstrate the unsoundness on generated
	// protocols, which is why no such mode is offered.
	BestSeed bool
	// DisableNET replaces the missing-sender necessary-enabling sets with
	// all feeders — the paper's plain-LPOR configuration (its appendix
	// distinguishes LPOR from LPOR-NET via the fw.spor flag). Sound, less
	// reductive; exists for the ablation benches.
	DisableNET bool
	// DisableUniqueness ignores UniquePerSender annotations, treating
	// every feeder as able to grow an enabled quorum transition's event
	// set. Sound, less reductive; exists for the ablation benches.
	DisableUniqueness bool

	// dropGrowthFeeders exists only so the tests can demonstrate the
	// unsoundness described above; production code never sets it.
	dropGrowthFeeders bool
}

var _ explore.Expander = (*Expander)(nil)

// NewExpander builds a static-POR expander for p. Seeds are ordered by
// decreasing Transition.Priority (the paper's "opposite transaction"
// heuristic, §V-B), ties broken by transition index.
func NewExpander(p *core.Protocol) (*Expander, error) {
	a, err := NewAnalysis(p)
	if err != nil {
		return nil, err
	}
	return newExpander(a), nil
}

// NewExpanderFromAnalysis reuses a precomputed analysis.
func NewExpanderFromAnalysis(a *Analysis) *Expander { return newExpander(a) }

func newExpander(a *Analysis) *Expander {
	order := make([]int, len(a.p.Transitions))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		tx, ty := a.p.Transitions[order[x]], a.p.Transitions[order[y]]
		if tx.Priority != ty.Priority {
			return tx.Priority > ty.Priority
		}
		return order[x] < order[y]
	})
	return &Expander{a: a, seedOrder: order}
}

// Analysis exposes the underlying static analysis (diagnostics, tests).
func (e *Expander) Analysis() *Analysis { return e.a }

// scratch is the working memory of one Expand call, reused through
// scratchPool so that a call allocates nothing but the subset it returns.
type scratch struct {
	enabled bitset    // the transitions with an enabled event
	stub    [2]bitset // the closure being computed and the best one kept
	todo    bitset    // members of the closure whose row is not ORed in yet
	have    bitset    // the members whose row is filled in for this state
	// rows is a table like those of Analysis: row i is what member i pulls
	// into a stubborn set at this state, valid iff have has i.
	rows    []uint64
	senders []core.ProcessID
}

// scratchPool lets concurrent Expand callers (ParallelBFS workers share
// one Expander) each work on a scratch of their own.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns a scratch sized for a, with enabled and have empty.
func (a *Analysis) getScratch() *scratch {
	sc := scratchPool.Get().(*scratch)
	n, w := len(a.p.Transitions), a.w
	if len(sc.enabled) != w || len(sc.rows) < n*w {
		slab := make([]uint64, (5+n)*w)
		sc.enabled, sc.stub[0], sc.stub[1], sc.todo, sc.have, sc.rows =
			slab[:w], slab[w:2*w], slab[2*w:3*w], slab[3*w:4*w], slab[4*w:5*w], slab[5*w:]
	}
	clear(sc.enabled)
	clear(sc.have)
	return sc
}

// Expand implements explore.Expander. The ignoring proviso (C3) is
// enforced by the engines themselves — DFS re-expands when a reduced
// expansion would close a cycle on its stack, the BFS engines when a
// reduced expansion discovers no state that was unvisited at the start of
// the node's level; Expand enforces C1 (stubbornness) and C2 (a reduced
// ample set contains no visible transition).
func (e *Expander) Expand(s *core.State, enabled []core.Event, _ explore.Proviso) []core.Event {
	if len(enabled) <= 1 {
		return enabled
	}
	sc := e.a.getScratch()
	out := e.expand(sc, s, enabled)
	scratchPool.Put(sc)
	return out
}

func (e *Expander) expand(sc *scratch, s *core.State, enabled []core.Event) []core.Event {
	distinct := 0
	for i := range enabled {
		if idx := enabled[i].T.Index(); !sc.enabled.has(idx) {
			sc.enabled.set(idx)
			distinct++
		}
	}
	if distinct <= 1 {
		// A single (possibly non-deterministic) transition: all its
		// events must be executed anyway (Figure 4(b)).
		return enabled
	}

	var best bitset
	bestSize, cur := distinct, 0
	for _, seed := range e.seedOrder {
		if !sc.enabled.has(seed) {
			continue
		}
		stub := sc.stub[cur]
		e.stubborn(sc, stub, seed, s)
		// The ample set is the enabled part of the stubborn set.
		size, visible := 0, false
		for k, word := range stub {
			word &= sc.enabled[k]
			size += bits.OnesCount64(word)
			visible = visible || word&e.a.visible[k] != 0
		}
		if size >= bestSize || visible {
			continue
		}
		best, bestSize = stub, size
		if !e.BestSeed {
			break
		}
		cur ^= 1 // keep best, close the next seeds into the other buffer
	}
	if best == nil {
		return enabled
	}
	// The engines retain enabled for proviso promotion, so the subset is a
	// slice of its own, sized exactly.
	kept := 0
	for i := range enabled {
		if best.has(enabled[i].T.Index()) {
			kept++
		}
	}
	out := make([]core.Event, 0, kept)
	for i := range enabled {
		if best.has(enabled[i].T.Index()) {
			out = append(out, enabled[i])
		}
	}
	return out
}

// stubborn computes into stub the strong stubborn set at state s seeded
// with seed, as the least fixed point of "every member's row is in the
// set": an enabled member pulls in anything that could disable it, conflict
// with it, or grow its set of executable events; a disabled member pulls in
// a necessary enabling set.
func (e *Expander) stubborn(sc *scratch, stub bitset, seed int, s *core.State) {
	todo := sc.todo // empty between closures
	clear(stub)
	stub.set(seed)
	todo.set(seed)
	for k := 0; k < len(todo); {
		if todo[k] == 0 {
			k++
			continue
		}
		i := k<<6 + bits.TrailingZeros64(todo[k])
		todo[k] &= todo[k] - 1
		for j, word := range e.row(sc, i, s) {
			if fresh := word &^ stub[j]; fresh != 0 {
				stub[j] |= fresh
				todo[j] |= fresh
				k = min(k, j)
			}
		}
	}
}

// row returns the transitions member i pulls into a stubborn set at state
// s. It depends on the state but not on the seed or on the rest of the
// set, so it is filled in at most once per Expand and shared by every seed
// tried.
func (e *Expander) row(sc *scratch, i int, s *core.State) bitset {
	row := e.a.row(sc.rows, i)
	if !sc.have.has(i) {
		sc.have.set(i)
		e.fillRow(sc, row, i, s)
	}
	return row
}

// fillRow writes member i's row: a copy of one of the Analysis, or one
// derived from the senders pending at s.
//
// An enabled member pulls in its conflicts and the feeders that could still
// grow its event set. New events need new consumable messages; when i is
// UniquePerSender, a sender that already contributes a candidate cannot
// supply another, so only feeders executed by non-contributing peers
// qualify — for a fully split transition whose quorum is complete, that is
// the empty set, which is precisely why refinement sharpens the reduction
// (§III-C/D). Without the uniqueness property every feeder must be assumed
// capable of adding alternatives.
//
// A disabled member pulls in a necessary enabling set: every path on which
// i becomes enabled must execute one of the returned transitions first.
// The tightest applicable condition is chosen (the LPOR-NET optimization):
//
//  1. the local-state guard is false (or the transition is spontaneous, so
//     its whole guard is local) — only the process's own state-writing
//     transitions can change that;
//  2. the message quorum is structurally incomplete — only feeders, and
//     with restricted peers only feeders executed by the *missing* senders
//     (this is where quorum-split sharpens the NET); if no feeder can ever
//     supply the deficit the transition is permanently disabled and the
//     empty set is a valid NET;
//  3. otherwise the content guard rejects every candidate set — a local
//     change or different message contents are needed.
func (e *Expander) fillRow(sc *scratch, row bitset, i int, s *core.State) {
	a := e.a
	t := a.p.Transitions[i]
	if sc.enabled.has(i) {
		if t.Spontaneous() || e.dropGrowthFeeders {
			copy(row, a.row(a.conflicts, i))
			return
		}
		copy(row, a.row(a.feeders, i))
		if t.UniquePerSender && !e.DisableUniqueness {
			sc.senders = s.Msgs.AppendMatchingSenders(sc.senders[:0], t.Proc, t.MsgType, t.Peers)
			for _, q := range sc.senders {
				for k, word := range a.row(a.feedersBy, i*a.p.N+int(q)) {
					row[k] &^= word
				}
			}
		}
		for k, word := range a.row(a.conflicts, i) {
			row[k] |= word
		}
		return
	}
	switch {
	case t.Spontaneous() || !t.LocalGuardOK(s.Locals[t.Proc]):
		copy(row, a.row(a.writers, i))
	case a.p.StructurallyEnabled(t, s):
		copy(row, a.row(a.enabling, i))
	case t.Peers == nil || e.DisableNET:
		copy(row, a.row(a.feeders, i))
	default:
		sc.senders = s.Msgs.AppendMatchingSenders(sc.senders[:0], t.Proc, t.MsgType, t.Peers)
		clear(row)
		missing := false
		for _, q := range t.Peers {
			if !slices.Contains(sc.senders, q) {
				missing = true
				for k, word := range a.row(a.feedersBy, i*a.p.N+int(q)) {
					row[k] |= word
				}
			}
		}
		if !missing {
			// Every peer has a candidate pending and the quorum is still
			// short: fall back to all feeders, as for unrestricted peers.
			copy(row, a.row(a.feeders, i))
		}
	}
}

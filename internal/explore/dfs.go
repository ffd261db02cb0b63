package explore

import (
	"mpbasset/internal/core"
)

type dfsSucc struct {
	ev  core.Event
	st  *core.State
	key string
}

// dfsInv is a speculator's pre-computed invariant check of one successor.
type dfsInv struct {
	checked bool
	verr    error
}

// dfsRecord is the expansion record of one state: everything the DFS walk
// needs to expand the state, whether it was just built inline or memoized
// ahead of time by a ParallelDFS speculator. Records are pure functions of
// the state (Enabled, Expand, Execute and canonicalization are
// deterministic and read-only), which is what makes them safe to
// precompute out of order.
type dfsRecord struct {
	// src is the state the record was built from. The proviso promotion
	// re-executes the full enabled set against it, never against another
	// instance of the same canonical key, so a record stays internally
	// consistent even under a canonicalizing Canon (symmetry orbits).
	src      *core.State
	deadlock bool
	reduced  bool
	// enabled is the full enabled-event set, retained only for reduced
	// expansions so the stack proviso can promote them without recomputing
	// Enabled.
	enabled []core.Event
	succs   []dfsSucc
	// inv runs parallel to succs once a speculator has pre-checked the
	// record, and is nil on inline builds, where the walk checks every
	// invariant itself.
	inv []dfsInv
	// err is a deferred Execute failure; it is surfaced when (and only
	// when) the walk actually expands the state.
	err error
}

// dfsBuild computes a state's expansion record: enabled events, the
// expander's chosen subset, and the executed successors.
func dfsBuild(p *core.Protocol, s *core.State, exp Expander, canon func(*core.State) string, prov Proviso) dfsRecord {
	rec := dfsRecord{src: s}
	enabled := p.Enabled(s)
	if len(enabled) == 0 {
		rec.deadlock = true
		return rec
	}
	chosen := exp.Expand(s, enabled, prov)
	rec.reduced = len(chosen) < len(enabled)
	if rec.reduced {
		rec.enabled = enabled
	}
	rec.succs, rec.err = execAll(p, s, chosen, canon)
	return rec
}

// precheck is the speculators' extra step: it runs the invariant on the
// record's successors ahead of the walk, except on those the probe already
// reports as visited, which the walk can only revisit.
func (rec *dfsRecord) precheck(p *core.Protocol, probe func(string) bool) {
	rec.inv = make([]dfsInv, len(rec.succs))
	for i := range rec.succs {
		sc := &rec.succs[i]
		if probe != nil && probe(sc.key) {
			continue
		}
		rec.inv[i] = dfsInv{checked: true, verr: p.CheckInvariant(sc.st)}
	}
}

type dfsFrame struct {
	key   string
	via   core.Event // event that led into this frame (zero for the root)
	succs []dfsSucc
	inv   []dfsInv // parallel to succs, or nil
	next  int
}

type dfsStack struct {
	onStack map[string]bool
}

func (d *dfsStack) OnStack(key string) bool { return d.onStack[key] }

// Ignoring implements Proviso with the DFS stack discipline: a reduced
// expansion must be promoted to a full one when some successor is on the
// current search stack, i.e. the reduced expansion would close a cycle on
// which its deferred events could be ignored forever.
func (d *dfsStack) Ignoring(succKeys []string) bool {
	for _, k := range succKeys {
		if d.onStack[k] {
			return true
		}
	}
	return false
}

// DFS runs a stateful depth-first search: every distinct state is visited
// once, the invariant is checked on each visit, and the search stops at the
// first violation with a counterexample trace (the paper's "first bug"
// debugging mode) or when the state space is exhausted.
//
// DFS cooperates with reducing expanders: when a reduced expansion would
// close a cycle back onto the search stack, the state is re-expanded fully
// (the stack variant of the ignoring proviso C3, counted in
// Stats.ProvisoExpansions), keeping POR sound on cyclic state graphs. The
// BFS engines enforce the same proviso with a queue discipline instead.
func DFS(p *core.Protocol, opts Options) (*Result, error) {
	return dfs(p, opts, opts.store(), nil)
}

// ParallelDFS runs DFS's walk with the speculation kernel attached (see
// Speculation): workers steal the pending siblings of the walk's frames and
// memoize their subtrees' expansion records, pre-checked invariants
// included, so verdicts, statistics and counterexample traces are
// bit-identical to DFS for any worker count, on any store. Under a
// canonicalizing Options.Canon the same caveat as ParallelBFS applies: the
// Violation error value (and trace event labels) may come from any member
// of a state's symmetry orbit, since a record may have been built from a
// different orbit representative.
//
// Proviso: the stack variant of the ignoring proviso (C3) stays entirely
// inside the walk, whose stack IS the sequential search stack:
// Proviso.OnStack and Ignoring are answered from it alone, never from
// speculative state. A stolen subtree's root remains pinned on that stack —
// it is a pending sibling of a live frame until its turn commits — so
// reduced expansions are promoted exactly when sequential DFS would promote
// them. Speculators hand the expander an inert proviso, which is sound
// because an Expander's chosen set must not depend on the hook (see
// Proviso); promotion re-executes the full enabled set from the record's
// own source state during commit.
//
// The store must tolerate concurrent Has probes during Seen inserts;
// Options.concurrentStore guarantees that by wrapping non-concurrent stores
// behind a mutex.
func ParallelDFS(p *core.Protocol, opts Options) (*Result, error) {
	var (
		store = opts.concurrentStore()
		canon = opts.canon()
		exp   = opts.expander()
		probe = storeProbe(store)
	)
	return dfs(p, opts, store, Speculate(opts, SpecEngine[dfsSucc, dfsRecord]{
		Key:   func(n dfsSucc) string { return n.key },
		Probe: probe,
		Build: func(n dfsSucc) (*dfsRecord, []dfsSucc) {
			rec := dfsBuild(p, n.st, exp, canon, noProviso{})
			rec.precheck(p, probe)
			return &rec, rec.succs
		},
	}))
}

// storeProbe is the non-mutating visited-set lookup speculators use to skip
// committed states: nil when the store cannot answer, in which case they
// dedupe through the memo table alone.
func storeProbe(store Store) func(string) bool {
	if hs, ok := store.(HasStore); ok {
		return hs.Has
	}
	return nil
}

// dfs is the walk shared by DFS and ParallelDFS: the stack search, which
// takes a state's expansion record from spec when a speculator got there
// first and builds it inline otherwise (always, when spec is nil). The
// commit path is identical either way, so the two entry points produce
// bit-identical verdicts, statistics and traces.
func dfs(p *core.Protocol, opts Options, store Store, spec *Speculation[dfsSucc, dfsRecord]) (result *Result, err error) {
	var (
		res     Result
		canon   = opts.canon()
		exp     = opts.expander()
		lim     = newLimiter(opts)
		stack   []dfsFrame
		sinfo   = &dfsStack{onStack: make(map[string]bool)}
		limited bool
		keyBuf  []string
	)
	defer func() {
		res.Stats.Duration = lim.elapsed()
		captureStoreStats(store, &res.Stats)
		if serr := storeErr(store); serr != nil && err == nil {
			result, err = nil, serr
		}
	}()
	// Runs first (LIFO): the speculators are joined before the stats defer
	// above reads the store.
	defer spec.Close(&res.Stats)
	init, err := p.InitialState()
	if err != nil {
		return nil, err
	}

	// expand computes one state's successors in commit order: its record,
	// then the stack proviso and the expansion statistics.
	expand := func(s *core.State, key string) ([]dfsSucc, []dfsInv, error) {
		var rec dfsRecord
		if r := spec.Take(key); r != nil {
			rec = *r
		} else {
			rec = dfsBuild(p, s, exp, canon, sinfo)
		}
		if rec.err != nil {
			return nil, nil, rec.err
		}
		if rec.deadlock {
			res.Stats.Deadlocks++
			return nil, nil, nil
		}
		if rec.reduced {
			keyBuf = succKeys(keyBuf, rec.succs)
			if sinfo.Ignoring(keyBuf) {
				// Stack proviso (C3): a reduced expansion must not close a
				// cycle on the stack, or the deferred events could be
				// ignored forever. Re-execute from the record's own source
				// state, which stays orbit-consistent under symmetry.
				res.Stats.ProvisoExpansions++
				res.Stats.FullExpansions++
				succs, err := execAll(p, rec.src, rec.enabled, canon)
				return succs, nil, err
			}
			res.Stats.ReducedExpansions++
		} else {
			res.Stats.FullExpansions++
		}
		return rec.succs, rec.inv, nil
	}

	push := func(s *core.State, key string, via core.Event) error {
		sinfo.onStack[key] = true
		succs, inv, err := expand(s, key)
		if err != nil {
			return err
		}
		stack = append(stack, dfsFrame{key: key, via: via, succs: succs, inv: inv})
		if len(succs) > 1 {
			// The pending siblings: everything after the child the walk
			// enters next.
			spec.Publish(succs[1:]...)
		}
		return nil
	}

	trace := func(last *dfsSucc) []Step {
		var steps []Step
		for _, f := range stack[1:] {
			steps = append(steps, Step{Event: f.via, StateKey: f.key})
		}
		if last != nil {
			steps = append(steps, Step{Event: last.ev, StateKey: last.key})
		}
		return steps
	}

	ikey := canon(init)
	store.Seen(ikey)
	res.Stats.States = 1
	if verr := p.CheckInvariant(init); verr != nil {
		res.Verdict = VerdictViolated
		res.Violation = verr
		return &res, nil
	}
	if err := push(init, ikey, core.Event{}); err != nil {
		return nil, err
	}

	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next >= len(f.succs) {
			delete(sinfo.onStack, f.key)
			stack = stack[:len(stack)-1]
			continue
		}
		sc := f.succs[f.next]
		var inv dfsInv
		if f.inv != nil {
			inv = f.inv[f.next]
		}
		f.next++
		res.Stats.Events++
		if store.Seen(sc.key) {
			res.Stats.Revisits++
			continue
		}
		res.Stats.States++
		// sc sits one event below the frame on top of the stack, i.e. at
		// depth len(stack) counting the root as 0 — the same convention
		// BFS uses for Stats.MaxDepth and the MaxDepth limit.
		if len(stack) > res.Stats.MaxDepth {
			res.Stats.MaxDepth = len(stack)
		}
		if !inv.checked {
			inv.verr = p.CheckInvariant(sc.st)
		}
		if inv.verr != nil {
			res.Verdict = VerdictViolated
			res.Violation = inv.verr
			res.Trace = trace(&sc)
			return &res, nil
		}
		if lim.statesExceeded(res.Stats.States) || lim.timeExceeded() {
			limited = true
			break
		}
		if lim.depthExceeded(len(stack)) {
			limited = true
			continue
		}
		if err := push(sc.st, sc.key, sc.ev); err != nil {
			return nil, err
		}
	}

	if limited {
		res.Verdict = VerdictLimit
	} else {
		res.Verdict = VerdictVerified
	}
	return &res, nil
}

func execAll(p *core.Protocol, s *core.State, events []core.Event, canon func(*core.State) string) ([]dfsSucc, error) {
	succs := make([]dfsSucc, 0, len(events))
	for _, ev := range events {
		ns, err := p.Execute(s, ev)
		if err != nil {
			return nil, err
		}
		succs = append(succs, dfsSucc{ev: ev, st: ns, key: canon(ns)})
	}
	return succs, nil
}

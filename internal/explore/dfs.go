package explore

import (
	"mpbasset/internal/core"
)

// dfsSucc is one successor of an expansion. st is nil when the store
// already held key as the successor was computed: see execAll.
type dfsSucc struct {
	ev  core.Event
	st  *core.State
	key string
}

type dfsFrame struct {
	key   string
	via   core.Event // event that led into this frame (zero for the root)
	succs []dfsSucc
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
func DFS(p *core.Protocol, opts Options) (result *Result, err error) {
	var (
		res     Result
		store   = opts.store()
		canon   = opts.canon()
		exp     = opts.expander()
		lim     = newLimiter(opts)
		stack   []dfsFrame
		sinfo   = &dfsStack{onStack: make(map[string]bool)}
		limited bool
		keyBuf  []string
		step    core.StepBuffer
		has, _  = store.(HasStore)
	)
	defer func() {
		res.Stats.Duration = lim.elapsed()
		captureStoreStats(store, &res.Stats)
		if serr := storeErr(store); serr != nil && err == nil {
			result, err = nil, serr
		}
	}()
	init, err := p.InitialState()
	if err != nil {
		return nil, err
	}

	// expand computes one state's successors: the expander's choice, then
	// the stack proviso and the expansion statistics.
	expand := func(s *core.State) ([]dfsSucc, error) {
		enabled := p.Enabled(s)
		if len(enabled) == 0 {
			res.Stats.Deadlocks++
			return nil, nil
		}
		chosen := exp.Expand(s, enabled, sinfo)
		succs, err := execAll(p, &step, s, chosen, canon, has)
		if err != nil {
			return nil, err
		}
		if len(chosen) == len(enabled) {
			res.Stats.FullExpansions++
			return succs, nil
		}
		keyBuf = succKeys(keyBuf, succs)
		if sinfo.Ignoring(keyBuf) {
			// Stack proviso (C3): a reduced expansion must not close a
			// cycle on the stack, or the deferred events could be ignored
			// forever.
			res.Stats.ProvisoExpansions++
			res.Stats.FullExpansions++
			return execAll(p, &step, s, enabled, canon, has)
		}
		res.Stats.ReducedExpansions++
		return succs, nil
	}

	push := func(s *core.State, key string, via core.Event) error {
		sinfo.onStack[key] = true
		succs, err := expand(s)
		if err != nil {
			return err
		}
		stack = append(stack, dfsFrame{key: key, via: via, succs: succs})
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
		f.next++
		res.Stats.Events++
		if sc.st == nil || store.Seen(sc.key) {
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
		if verr := p.CheckInvariant(sc.st); verr != nil {
			res.Verdict = VerdictViolated
			res.Violation = verr
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

// ParallelDFS runs DFS: Options.Workers parallelizes only ParallelBFS.
//
// Deprecated: call DFS. ParallelDFS stays only for bench/layers/traced.go
// and goes when ROADMAP item 0b moves that file onto the mpbasset facade.
func ParallelDFS(p *core.Protocol, opts Options) (*Result, error) { return DFS(p, opts) }

// execAll computes the successors of s under events, stepping each into
// step and canonicalizing the transient view. A successor whose key has
// already holds keeps only its event and key (st stays nil), and the
// engines count it as a revisit without probing again. Every other
// successor is kept; with a nil has, all of them are.
func execAll(p *core.Protocol, step *core.StepBuffer, s *core.State, events []core.Event, canon func(*core.State) string, has HasStore) ([]dfsSucc, error) {
	succs := make([]dfsSucc, 0, len(events))
	for _, ev := range events {
		view, err := p.Step(step, s, ev)
		if err != nil {
			return nil, err
		}
		sc := dfsSucc{ev: ev, key: canon(view)}
		//lint:has-ok stores are insert-only, so a key Has holds now is one Seen reports as present when the engine reaches this successor; a stale false only keeps a successor the probe could have dropped
		if has == nil || !has.Has(sc.key) {
			sc.st = step.Keep()
		}
		succs = append(succs, sc)
	}
	return succs, nil
}

package explore

import (
	"mpbasset/internal/core"
)

// defaultStatelessDepth bounds stateless searches when the caller gives no
// MaxDepth, guaranteeing termination even on cyclic graphs.
const defaultStatelessDepth = 1 << 20

// StatelessDFS explores every path from the initial state without a
// visited set — the search mode dynamic POR requires (§III-A: "DPOR can
// only support stateless search"). States reached along different paths are
// visited again, so Stats.States counts node visits, matching how the
// paper's Table I reports states for the Basset/DPOR column.
//
// The expander hook applies here too; package dpor drives its own,
// backtrack-set based engine instead.
func StatelessDFS(p *core.Protocol, opts Options) (*Result, error) {
	init, err := p.InitialState()
	if err != nil {
		return nil, err
	}
	var (
		res     Result
		canon   = opts.canon()
		exp     = opts.expander()
		lim     = newLimiter(opts)
		limited bool
		step    core.StepBuffer
	)
	if lim.maxDepth == 0 {
		lim.maxDepth = defaultStatelessDepth
	}
	defer func() { res.Stats.Duration = lim.elapsed() }()

	type frame struct {
		key   string
		via   core.Event
		succs []dfsSucc
		next  int
	}
	var stack []frame
	sinfo := noProviso{}

	push := func(s *core.State, key string, via core.Event) error {
		res.Stats.States++
		enabled := p.Enabled(s)
		var succs []dfsSucc
		if len(enabled) == 0 {
			res.Stats.Deadlocks++
		} else {
			chosen := exp.Expand(s, enabled, sinfo)
			if len(chosen) < len(enabled) {
				res.Stats.ReducedExpansions++
			} else {
				res.Stats.FullExpansions++
			}
			var err error
			if succs, err = execAll(p, &step, s, chosen, canon, nil); err != nil {
				return err
			}
		}
		stack = append(stack, frame{key: key, via: via, succs: succs})
		if len(stack) > res.Stats.MaxDepth {
			res.Stats.MaxDepth = len(stack)
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
	if verr := p.CheckInvariant(init); verr != nil {
		res.Stats.States = 1
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
			stack = stack[:len(stack)-1]
			continue
		}
		sc := f.succs[f.next]
		f.next++
		res.Stats.Events++
		if verr := p.CheckInvariant(sc.st); verr != nil {
			res.Stats.States++
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
			res.Stats.States++
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

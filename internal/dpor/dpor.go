package dpor

import (
	"fmt"

	"mpbasset/internal/core"
	"mpbasset/internal/explore"
	"mpbasset/internal/por"
)

// Config tunes the DPOR engine beyond the generic search options.
type Config struct {
	// SleepSets enables Godefroid-style sleep sets on top of the
	// backtrack sets: once an event's subtree is fully explored, sibling
	// subtrees skip it until a dependent event wakes it, pruning
	// re-exploration of equivalent orders. Explore enables them by
	// default; the validation suite checks both modes.
	SleepSets bool
}

// Explore runs the DPOR-reduced stateless search on a single-message
// protocol, with sleep sets enabled. The Store, Canon and Expander options
// are ignored (DPOR drives its own expansion); limits and trace options
// apply.
func Explore(p *core.Protocol, opts explore.Options) (*explore.Result, error) {
	return ExploreWith(p, opts, Config{SleepSets: true})
}

// ExploreWith is Explore with explicit engine configuration.
func ExploreWith(p *core.Protocol, opts explore.Options, cfg Config) (*explore.Result, error) {
	a, err := analyze(p)
	if err != nil {
		return nil, err
	}
	e := &engine{p: p, a: a, opts: opts, cfg: cfg}
	return e.run()
}

// analyze finalizes and validates the protocol for DPOR — rejecting quorum
// transitions, which DPOR cannot reduce soundly — and builds the
// dependence analysis.
func analyze(p *core.Protocol) (*por.Analysis, error) {
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	for _, t := range p.Transitions {
		if t.Quorum > 1 || t.Quorum == core.AnyQuorum {
			return nil, fmt.Errorf("dpor: transition %s is a quorum transition; DPOR supports single-message models only (rebuild the protocol in the single-message style — mpcheck's -model single)", t)
		}
	}
	return por.NewAnalysis(p)
}

// DeadlockStates runs the DPOR search and returns the distinct terminal
// (deadlock) state keys it reaches. It exists for validation: dynamic POR
// must preserve every deadlock state of the full search.
func DeadlockStates(p *core.Protocol) (map[string]bool, error) {
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	a, err := por.NewAnalysis(p)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	e := &engine{p: p, a: a, onTerminal: func(s *core.State) { seen[s.Key()] = true }}
	if _, err := e.run(); err != nil {
		return nil, err
	}
	return seen, nil
}

// frame is one entry of the stateless DFS stack.
type frame struct {
	state   *core.State
	enabled []core.Event
	keys    map[string]int // event key -> index into enabled
	// backtrack holds event keys scheduled for exploration at this state;
	// done holds those already explored; sleep holds events whose traces
	// are already covered by fully-explored siblings.
	backtrack map[string]bool
	done      map[string]bool
	sleep     map[string]core.Event
	// Fields describing the event taken FROM this frame (set when a child
	// is pushed):
	executed core.Event
	clock    []int    // vector clock of the executed event
	sent     []string // message keys the executed event sent
}

type engine struct {
	p          *core.Protocol
	a          *por.Analysis
	opts       explore.Options
	cfg        Config
	onTerminal func(*core.State)
	stack      []frame
	// sendClocks maps a message key to the stack of vector clocks of its
	// (possibly repeated) send events along the current path.
	sendClocks map[string][][]int
	// pending is raceCheckPending's message-matching scratch.
	pending []core.Message
	res     explore.Result
}

func (e *engine) run() (*explore.Result, error) {
	lim := newLimits(e.opts)
	defer func() { e.res.Stats.Duration = lim.elapsed() }()
	e.sendClocks = make(map[string][][]int)

	init, err := e.p.InitialState()
	if err != nil {
		return nil, err
	}
	if verr := e.p.CheckInvariant(init); verr != nil {
		e.res.Stats.States = 1
		e.res.Verdict = explore.VerdictViolated
		e.res.Violation = verr
		return &e.res, nil
	}
	e.push(init)

	for len(e.stack) > 0 {
		if lim.exceeded(&e.res.Stats) {
			e.res.Verdict = explore.VerdictLimit
			return &e.res, nil
		}
		f := &e.stack[len(e.stack)-1]
		key, ok := e.nextEvent(f)
		if !ok {
			e.pop()
			continue
		}
		f.done[key] = true
		ev := f.enabled[f.keys[key]]
		ns, err := e.p.Execute(f.state, ev)
		if err != nil {
			return nil, err
		}
		e.res.Stats.Events++
		e.updateRaces(ev)
		e.recordExecution(ev, sentKeys(f.state, ns, ev))
		if verr := e.p.CheckInvariant(ns); verr != nil {
			e.res.Stats.States++
			e.res.Verdict = explore.VerdictViolated
			e.res.Violation = verr
			e.res.Trace = e.trace(ns)
			return &e.res, nil
		}
		e.push(ns)
		e.backtrackDisabled(ev)
		e.raceCheckPending()
	}
	e.res.Verdict = explore.VerdictVerified
	return &e.res, nil
}

// raceCheckPending race-checks *structurally pending* deliveries of the new
// top state — every (transition, message) pair matching on type and peers,
// whether or not its guard currently holds. Classic Flanagan–Godefroid
// checks only executed events, which suffices when pending deliveries stay
// enabled until delivered; with guarded transitions a delivery can be
// disabled on the explored branch yet enabled on the reordered one and
// would otherwise never be scheduled (the deadlock-preservation tests
// demonstrate this on generated protocols).
//
// The check is incremental: deliveries of messages just sent are checked
// against the whole stack; older pending deliveries were checked at
// earlier pushes against everything below, so they only need the newest
// frame.
func (e *engine) raceCheckPending() {
	if len(e.stack) < 2 {
		return
	}
	parentIdx := len(e.stack) - 2
	parent := &e.stack[parentIdx]
	newKeys := make(map[string]bool, len(parent.sent))
	for _, k := range parent.sent {
		newKeys[k] = true
	}
	ns := e.stack[len(e.stack)-1].state
	for _, t := range e.p.Transitions {
		if t.Quorum != 1 {
			continue
		}
		e.pending = ns.Msgs.AppendMatching(e.pending[:0], t.Proc, t.MsgType, t.Peers)
		for _, m := range e.pending {
			u := core.Event{T: t, Msgs: []core.Message{m}}
			if newKeys[m.Key()] {
				e.updateRacesFrom(u, parentIdx)
			} else {
				e.updateRacesAt(u, parentIdx)
			}
		}
	}
}

// backtrackDisabled handles a subtlety of guarded message-passing models
// that plain Flanagan–Godefroid does not face: executing ev can *disable* a
// co-enabled event u of the same process (a guard turns false, or u's
// message is consumed). u then never executes downstream, so the usual
// execution-triggered race detection would never schedule it — losing the
// u-first interleavings (and their deadlock states). Scheduling u at ev's
// pre-state restores them. Cross-process events cannot be disabled (their
// messages and local guards are untouched), so the scan is process-local.
func (e *engine) backtrackDisabled(ev core.Event) {
	if len(e.stack) < 2 {
		return
	}
	parent := &e.stack[len(e.stack)-2]
	child := &e.stack[len(e.stack)-1]
	evKey := ev.Key()
	for _, u := range parent.enabled {
		if u.T.Proc != ev.T.Proc {
			continue
		}
		k := u.Key()
		if k == evKey {
			continue
		}
		if _, still := child.keys[k]; !still {
			parent.backtrack[k] = true
		}
	}
}

// push enters a new state: computes its enabled events and seeds the
// backtrack set with a single event (highest transition priority, then
// enumeration order) — the defining move of DPOR.
func (e *engine) push(s *core.State) {
	e.res.Stats.States++
	enabled := e.p.Enabled(s)
	f := frame{
		state:     s,
		enabled:   enabled,
		keys:      make(map[string]int, len(enabled)),
		backtrack: make(map[string]bool, 1),
		done:      make(map[string]bool, 1),
		sleep:     make(map[string]core.Event),
	}
	for i, ev := range enabled {
		f.keys[ev.Key()] = i
	}
	// Inherit the sleep set: events whose traces are covered stay asleep
	// unless the edge just taken is dependent with them (a dependent step
	// creates genuinely new orders).
	if e.cfg.SleepSets && len(e.stack) > 0 {
		parent := &e.stack[len(e.stack)-1]
		if parent.clock != nil {
			//lint:nondet-ok filtered map-to-map copy: per-key decisions are independent, so the resulting sleep set is order-free
			for k, u := range parent.sleep {
				if !e.a.Dependent(u.T.Index(), parent.executed.T.Index()) {
					f.sleep[k] = u
				}
			}
		}
	}
	if len(enabled) == 0 {
		e.res.Stats.Deadlocks++
		if e.onTerminal != nil {
			e.onTerminal(s)
		}
	} else {
		best := -1
		for i, ev := range enabled {
			if _, asleep := f.sleep[ev.Key()]; asleep {
				continue
			}
			if best < 0 || ev.T.Priority > enabled[best].T.Priority {
				best = i
			}
		}
		if best >= 0 {
			f.backtrack[enabled[best].Key()] = true
		}
	}
	e.stack = append(e.stack, f)
	if len(e.stack) > e.res.Stats.MaxDepth {
		e.res.Stats.MaxDepth = len(e.stack)
	}
}

func (e *engine) pop() {
	f := &e.stack[len(e.stack)-1]
	e.unrecordExecution(f)
	e.stack = e.stack[:len(e.stack)-1]
	if len(e.stack) > 0 {
		parent := &e.stack[len(e.stack)-1]
		// The just-finished edge's traces are covered: its siblings may
		// skip it until a dependent step wakes it.
		if e.cfg.SleepSets && parent.clock != nil {
			parent.sleep[parent.executed.Key()] = parent.executed
		}
		// The parent's executed-event bookkeeping is cleared so the next
		// sibling records fresh clocks.
		e.unrecordExecution(parent)
	}
}

// nextEvent picks the next scheduled, unexplored, non-sleeping event of f
// in the deterministic enabled order.
func (e *engine) nextEvent(f *frame) (string, bool) {
	for _, ev := range f.enabled {
		k := ev.Key()
		if f.backtrack[k] && !f.done[k] {
			if _, asleep := f.sleep[k]; asleep {
				continue
			}
			return k, true
		}
	}
	return "", false
}

// trace reconstructs the current path as a counterexample. final is the
// violating state the last executed event reached (it is never pushed, so
// it is not on the stack). Each step carries the key of the state its
// event reached — stack[i+1]'s state for inner steps, final for the last —
// so explore.Replay's canon cross-check can verify DPOR traces the same
// way it verifies stateful-engine traces.
func (e *engine) trace(final *core.State) []explore.Step {
	var steps []explore.Step
	for i := 0; i < len(e.stack); i++ {
		f := &e.stack[i]
		if f.clock == nil {
			continue
		}
		key := ""
		if i+1 < len(e.stack) {
			key = e.stack[i+1].state.Key()
		} else if final != nil {
			key = final.Key()
		}
		steps = append(steps, explore.Step{Event: f.executed, StateKey: key})
	}
	return steps
}

package dpor

import (
	"mpbasset/internal/core"
)

// specTarget is a node of ExploreParallel's speculation. Published by the
// commit walk it is a pending backtrack point: ev, scheduled at a stack
// frame with state st that the walk has not returned to yet, and not yet
// executed (key is empty). The subtree below it is a self-contained
// re-exploration, which is what makes DPOR backtrack points embarrassingly
// parallel. Once a speculator has executed the edge — and for every state
// below it — st is the state to expand and key its key.
type specTarget struct {
	st  *core.State
	ev  core.Event
	key string
}

// specSucc is one successor of a speculatively expanded state: the reached
// state, its key, the keys of the messages the event sent (the bag
// difference recordExecution needs for the vector clocks, ascending as
// sentKeys returns them) and the memoized invariant-check result. err
// defers an Execute failure to the exact commit step where sequential DPOR
// would have failed.
type specSucc struct {
	st   *core.State
	key  string
	sent []string
	verr error
	err  error
}

// specRecord is the expansion record of one state: its enabled events and
// one specSucc per enabled event, in enabled order. Every field is a pure
// function of the state alone — Enabled, Execute, CheckInvariant and
// sentKeys are deterministic and read-only — which is what makes records
// safe to precompute out of order and substitute into the commit walk. All
// path-dependent DPOR structure (vector clocks, races, backtrack and sleep
// sets) is re-derived by the walk itself, so stale speculation cannot
// exist: a record is never wrong, only possibly missing.
type specRecord struct {
	enabled []core.Event
	succs   []specSucc
}

// specBuild computes a state's expansion record: all enabled events and
// their executed, invariant-checked successors. Execute failures are
// recorded per successor (not aborting the record) because DPOR commits
// events one at a time — the walk may schedule a healthy sibling first.
//
// The second result is the states to speculate on next: the successors the
// walk could push, i.e. those that executed and satisfy the invariant.
func specBuild(p *core.Protocol, s *core.State) (*specRecord, []specTarget) {
	rec := &specRecord{enabled: p.Enabled(s)}
	rec.succs = make([]specSucc, len(rec.enabled))
	kids := make([]specTarget, 0, len(rec.enabled))
	for i, ev := range rec.enabled {
		ns, err := p.Execute(s, ev)
		if err != nil {
			rec.succs[i] = specSucc{err: err}
			continue
		}
		sc := specSucc{
			st:   ns,
			key:  ns.Key(),
			sent: sentKeys(s, ns, ev),
			verr: p.CheckInvariant(ns),
		}
		rec.succs[i] = sc
		if sc.verr == nil {
			kids = append(kids, specTarget{st: sc.st, key: sc.key})
		}
	}
	return rec, kids
}

package dpor

import (
	"mpbasset/internal/core"
	"mpbasset/internal/explore"
)

// ExploreParallel runs Explore's walk with the speculation kernel attached
// (see explore.Speculation), sleep sets enabled: verdicts, statistics and
// counterexample traces are bit-identical to Explore for any worker count.
//
// What is stolen are pending backtrack points: every event the walk
// schedules at a not-yet-finished frame — race-triggered points from
// updateRaces, and disabled-event points from backtrackDisabled — is
// published as a steal target. A speculator executes it against its
// (immutable) source state and memoizes, for the states below it, the
// enabled events and per event the executed successor, its invariant-check
// result and the message keys it sent (see specRecord). A frame pushed with
// a record replays the memoized successors instead of re-executing; all
// path-dependent DPOR structure (clocks, races, backtrack and sleep sets)
// is re-derived by the walk itself.
func ExploreParallel(p *core.Protocol, opts explore.Options) (*explore.Result, error) {
	return ExploreParallelWith(p, opts, Config{SleepSets: true})
}

// ExploreParallelWith is ExploreParallel with explicit engine
// configuration.
func ExploreParallelWith(p *core.Protocol, opts explore.Options, cfg Config) (*explore.Result, error) {
	a, err := analyze(p)
	if err != nil {
		return nil, err
	}
	e := &engine{p: p, a: a, opts: opts, cfg: cfg}
	e.spec = explore.Speculate(opts, explore.SpecEngine[specTarget, specRecord]{
		// An Execute failure on the stolen edge just drops the target — the
		// walk surfaces the error itself if it ever commits that edge.
		Open: func(t specTarget) (specTarget, bool) {
			ns, err := p.Execute(t.st, t.ev)
			if err != nil {
				return specTarget{}, false
			}
			return specTarget{st: ns, key: ns.Key()}, true
		},
		Key:   func(t specTarget) string { return t.key },
		Build: func(t specTarget) (*specRecord, []specTarget) { return specBuild(p, t.st) },
	})
	return e.run()
}

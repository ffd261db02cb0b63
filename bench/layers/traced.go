//go:build benchlayers

package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpbasset"
	"mpbasset/bench/suite"
	"mpbasset/internal/core"
	"mpbasset/internal/dpor"
	"mpbasset/internal/explore"
	"mpbasset/internal/liveness"
	"mpbasset/internal/por"
	"mpbasset/internal/refine"
	"mpbasset/internal/symmetry"
)

// Every spanEvery-th call into a layer keeps its raw span; every call is
// counted and timed. Every probeEvery-th expanded state has core.Enabled and
// core.Execute — which the engines call directly, with no hook to wrap —
// re-run and timed from outside; their totals are extrapolated by call count.
const (
	spanEvery  = 64
	probeEvery = 16
)

// span is one timed call into a layer, or the search or check around such
// calls. Times are nanoseconds since the tracer started.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
}

// tracer keeps the sampled spans of one traced rep in memory.
type tracer struct {
	workload string
	epoch    time.Time
	ids      atomic.Int64
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// open reserves an id for a span whose children need it before it ends.
func (tr *tracer) open() int64 { return tr.ids.Add(1) }

func (tr *tracer) record(id, parent int64, layer string, start, end time.Time) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{id, parent, layer, tr.workload, start.Sub(tr.epoch).Nanoseconds(), end.Sub(tr.epoch).Nanoseconds()})
	tr.mu.Unlock()
}

// layer tallies the calls into one layer. The parallel engines call the
// wrapped boundaries from several goroutines, hence the atomics.
type layer struct {
	name   string
	calls  atomic.Int64
	ns     atomic.Int64
	tr     *tracer
	parent *int64 // id of the search span the calls belong to
}

// done counts a call that began at start and ends now.
func (l *layer) done(start time.Time) {
	end := time.Now()
	l.ns.Add(end.Sub(start).Nanoseconds())
	if l.calls.Add(1)%spanEvery == 0 {
		l.tr.record(l.tr.open(), *l.parent, l.name, start, end)
	}
}

// busy is the layer's total time, less the clock's own cost per call.
func (l *layer) busy() float64 {
	return max(0, float64(l.ns.Load())-clockCost*float64(l.calls.Load()))
}

// perCall is the mean time of one call.
func (l *layer) perCall() float64 {
	if l.calls.Load() == 0 {
		return 0
	}
	return l.busy() / float64(l.calls.Load())
}

// clockCost is what a pair of time.Now calls adds to a measured interval,
// calibrated once; without it a 60 ns store probe would read 40% too long.
var clockCost = func() float64 {
	const n = 200000
	var total time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		total += time.Since(start)
	}
	return float64(total.Nanoseconds()) / n
}()

// tally is everything one traced rep of a workload measured, summed over
// its checks.
type tally struct {
	tr     *tracer
	search int64 // id of the current search span
	// goroutines is how many goroutines of the search call into the layers:
	// one, or a parallel engine's workers plus its commit walk or coordinator.
	goroutines float64

	enabled, execute, key, symCanon, expand, store layer

	probeNS                                 atomic.Int64 // time spent re-running Enabled/Execute
	probes, hits, batchCalls, batchKeys     atomic.Int64
	enabledEvents, keptEvents               atomic.Int64
	searchNS                                int64
	splitS, analysisS, symNewS, instrumentS float64
	transitionsOut, permutations            int
	stats                                   explore.Stats // summed over the checks
	checks                                  int
	redStates, redOf                        int // RedStates and States of the liveness checks
	retainedBytes, retainedStates           int64
	failures                                []string
}

func newTally(tr *tracer, workers int) *tally {
	t := &tally{tr: tr, goroutines: 1}
	if workers > 0 {
		t.goroutines = float64(workers + 1)
	}
	for _, l := range []struct {
		l    *layer
		name string
	}{
		{&t.enabled, "core.enabled"}, {&t.execute, "core.execute"}, {&t.key, "core.key"},
		{&t.symCanon, "symmetry.canon"}, {&t.expand, "por.expand"}, {&t.store, "explore.store"},
	} {
		l.l.name, l.l.tr, l.l.parent = l.name, tr, &t.search
	}
	return t
}

// tracedStore times every probe of the visited set.
type tracedStore struct {
	inner explore.HasStore
	t     *tally
}

func (s *tracedStore) Seen(key string) bool {
	start := time.Now()
	dup := s.inner.Seen(key)
	s.t.store.done(start)
	s.t.probes.Add(1)
	if dup {
		s.t.hits.Add(1)
	}
	return dup
}

func (s *tracedStore) Has(key string) bool {
	start := time.Now()
	ok := s.inner.Has(key)
	s.t.store.done(start)
	return ok
}

func (s *tracedStore) Len() int { return s.inner.Len() }

// tracedShardedStore adds what the parallel engines look for on a store:
// the batched insert and the concurrency marker. Its inner store is always a
// *explore.ShardedStore.
type tracedShardedStore struct{ tracedStore }

func (s *tracedShardedStore) SeenBatch(keys []string) []bool {
	start := time.Now()
	dups := s.inner.(explore.BatchStore).SeenBatch(keys)
	s.t.store.done(start)
	s.t.batchCalls.Add(1)
	s.t.batchKeys.Add(int64(len(keys)))
	s.t.probes.Add(int64(len(keys)))
	for _, dup := range dups {
		if dup {
			s.t.hits.Add(1)
		}
	}
	return dups
}

func (s *tracedShardedStore) ConcurrencySafe() {}

// tracedExpander times the expander and, on every probeEvery-th state,
// re-runs core.Enabled and core.Execute on the state it was handed.
type tracedExpander struct {
	inner explore.Expander
	p     *core.Protocol
	t     *tally
	n     atomic.Int64
}

func (e *tracedExpander) Expand(s *core.State, enabled []core.Event, prov explore.Proviso) []core.Event {
	start := time.Now()
	chosen := e.inner.Expand(s, enabled, prov)
	e.t.expand.done(start)
	e.t.enabledEvents.Add(int64(len(enabled)))
	e.t.keptEvents.Add(int64(len(chosen)))
	if e.n.Add(1)%probeEvery == 0 {
		e.probe(s, chosen)
	}
	return chosen
}

func (e *tracedExpander) probe(s *core.State, chosen []core.Event) {
	probeStart := time.Now()
	start := time.Now()
	e.p.Enabled(s)
	e.t.enabled.done(start)
	for _, ev := range chosen {
		start = time.Now()
		// The engine executes the same event on the same state and reports
		// any error itself; here only the time matters.
		_, _ = e.p.Execute(s, ev)
		e.t.execute.done(start)
	}
	e.t.probeNS.Add(time.Since(probeStart).Nanoseconds())
}

type engine func(*core.Protocol, explore.Options) (*explore.Result, error)

// check runs one check the way mpbasset.Check does — same order of
// refinement, instrumentation, store, symmetry, expander, engine — with the
// wrappers above at every pluggable boundary, and verifies the pin.
func (t *tally) check(c suite.Check) {
	id := t.tr.open()
	start := time.Now()
	p, opts, err := c.Build()
	var res *explore.Result
	if err == nil {
		res, err = t.run(id, p, opts)
	}
	t.tr.record(id, 0, "check:"+c.ID, start, time.Now())
	if err == nil {
		err = c.Pin.Verify(res)
	}
	if err != nil {
		t.failures = append(t.failures, fmt.Sprintf("%s (traced): %v", c.ID, err))
	}
	t.checks++
}

// setup times one set-up call as a span under the check.
func (t *tally) setup(check int64, name string, into *float64, f func() error) error {
	start := time.Now()
	err := f()
	end := time.Now()
	*into += end.Sub(start).Seconds()
	t.tr.record(t.tr.open(), check, name, start, end)
	return err
}

func (t *tally) run(check int64, p *core.Protocol, o mpbasset.Options) (*explore.Result, error) {
	if o.Split != mpbasset.SplitNone {
		if err := t.setup(check, "refine.split", &t.splitS, func() (err error) {
			p, err = refine.Split(p, o.Split)
			return err
		}); err != nil {
			return nil, err
		}
		t.transitionsOut += len(p.Transitions)
	}
	if o.Property != nil {
		if err := t.setup(check, "liveness.instrument", &t.instrumentS, func() (err error) {
			p, err = liveness.Instrument(p, o.Property)
			return err
		}); err != nil {
			return nil, err
		}
	}
	xo := explore.Options{MaxStates: o.MaxStates, TrackTrace: o.TrackTrace, Workers: o.Workers, Property: o.Property}
	parallel := o.Workers > 0

	var store *tracedStore
	if parallel {
		ts := &tracedShardedStore{tracedStore{explore.NewShardedHashStore(), t}}
		store, xo.Store = &ts.tracedStore, ts
	} else {
		store = &tracedStore{explore.NewHashStore(), t}
		xo.Store = store
	}

	canon, canonLayer := (*core.State).Key, &t.key
	if o.SymmetryRoles != nil {
		if err := t.setup(check, "symmetry.new", &t.symNewS, func() error {
			c, err := symmetry.New(p.N, o.SymmetryRoles)
			if err == nil {
				canon, canonLayer = c.Canon, &t.symCanon
				t.permutations += c.NumPermutations()
			}
			return err
		}); err != nil {
			return nil, err
		}
	}
	xo.Canon = func(s *core.State) string {
		start := time.Now()
		k := canon(s)
		canonLayer.done(start)
		return k
	}

	var inner explore.Expander = explore.FullExpander{}
	var search engine
	switch {
	case o.Search == mpbasset.SearchSPOR || o.Search == 0:
		if err := t.setup(check, "por.analysis", &t.analysisS, func() error {
			exp, err := por.NewExpander(p)
			if err == nil {
				inner = exp
			}
			return err
		}); err != nil {
			return nil, err
		}
		fallthrough
	case o.Search == mpbasset.SearchUnreduced:
		switch {
		case o.Property != nil && parallel:
			search = explore.ParallelNDFS
		case o.Property != nil:
			search = explore.NDFS
		case parallel:
			search = explore.ParallelDFS
		default:
			search = explore.DFS
		}
	case o.Search == mpbasset.SearchBFS && parallel:
		search = explore.ParallelBFS
	case o.Search == mpbasset.SearchBFS:
		search = explore.BFS
	case o.Search == mpbasset.SearchDPOR && parallel:
		search = dpor.ExploreParallel
	case o.Search == mpbasset.SearchDPOR:
		// DPOR drives its own expansion and keeps no visited set: none of
		// the wrappers is called, only the search span and the counts show.
		search = dpor.Explore
	default:
		return nil, fmt.Errorf("search %d is not traced", o.Search)
	}
	xo.Expander = &tracedExpander{inner: inner, p: p, t: t}

	t.search = t.tr.open()
	start := time.Now()
	res, err := search(p, xo)
	end := time.Now()
	t.searchNS += end.Sub(start).Nanoseconds()
	t.tr.record(t.search, check, "explore.search", start, end)
	if err != nil {
		return nil, err
	}

	st := res.Stats
	t.stats.States += st.States
	t.stats.Events += st.Events
	t.stats.Revisits += st.Revisits
	t.stats.ReducedExpansions += st.ReducedExpansions
	t.stats.FullExpansions += st.FullExpansions
	t.stats.ProvisoExpansions += st.ProvisoExpansions
	t.stats.Deadlocks += st.Deadlocks
	if o.Property != nil {
		t.redStates += st.RedStates
		t.redOf += st.States
	}

	// What the visited set retains: live heap with the store alive, less
	// live heap once it is dropped. The result stays alive across both.
	if n := store.Len(); n > 0 {
		var with, without runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&with)
		store.inner = nil
		runtime.GC()
		runtime.ReadMemStats(&without)
		t.retainedBytes += int64(with.HeapAlloc) - int64(without.HeapAlloc)
		t.retainedStates += int64(n)
	}
	return res, nil
}

package dpor

import (
	"sync"
	"sync/atomic"

	"mpbasset/internal/core"
)

// Tuning constants of the speculative scheduler behind ExploreParallel.
// They bound memory and per-steal work, not correctness: the commit walk is
// sequential DPOR verbatim, so results are bit-identical whatever their
// values. The numbers mirror internal/explore's ParallelDFS, whose steal
// discipline this engine copies.
const (
	// specMemoCap bounds the number of not-yet-consumed speculative
	// expansion records; speculators back off when the table is full.
	specMemoCap = 1 << 13
	// specQueueCap bounds the steal queue; overflow drops the oldest
	// (shallowest-discovered) targets, which the walk reaches last.
	specQueueCap = 4096
	// specStealBudget is the number of states one stolen backtrack point
	// may expand before the thief reports back and steals afresh.
	specStealBudget = 128
	// specStealDepth is the default bound on how many events below a
	// stolen backtrack point a worker speculates
	// (explore.Options.StealDepth overrides it).
	specStealDepth = 8
)

// specTarget is one steal target: a pending backtrack point — an event
// scheduled at a stack frame the commit walk has not returned to yet. The
// subtree below it is a self-contained re-exploration, which is what makes
// DPOR backtrack points embarrassingly parallel.
type specTarget struct {
	src *core.State
	ev  core.Event
}

// specSucc is one successor of a speculatively expanded state: the reached
// state, its key, the keys of the messages the event sent (the bag
// difference recordExecution needs for the vector clocks, ascending as
// sentKeys returns them) and the memoized invariant-check result. err defers an Execute failure to the
// exact commit step where sequential DPOR would have failed.
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
func specBuild(p *core.Protocol, s *core.State) *specRecord {
	rec := &specRecord{enabled: p.Enabled(s)}
	rec.succs = make([]specSucc, len(rec.enabled))
	for i, ev := range rec.enabled {
		ns, err := p.Execute(s, ev)
		if err != nil {
			rec.succs[i] = specSucc{err: err}
			continue
		}
		rec.succs[i] = specSucc{
			st:   ns,
			key:  ns.Key(),
			sent: sentKeys(s, ns, ev),
			verr: p.CheckInvariant(ns),
		}
	}
	return rec
}

// specPut is the outcome of a memo insert.
type specPut int

const (
	specStored specPut = iota
	specDup            // another speculator already recorded the key
	specFull           // the table is at capacity; the thief backs off
)

// specStripe is one lock-striped shard of a specMemo.
type specStripe struct {
	mu sync.Mutex
	m  map[string]*specRecord
}

// specMemo is the striped table of speculative expansion records, keyed by
// state key. Speculators insert, the commit walk consumes; entries live
// until the walk first pushes their state (or the search ends). The
// capacity bound keeps runaway speculation from holding unbounded state.
type specMemo struct {
	stripes [64]specStripe
	count   atomic.Int64
}

func (m *specMemo) stripe(key string) *specStripe {
	// FNV-1a over the key; only the stripe balance depends on it.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &m.stripes[h&63]
}

// full reports whether the table is at capacity. Thieves check it before
// paying for an expansion; put re-checks, so a stale answer only costs (or
// saves) one speculative build.
func (m *specMemo) full() bool { return m.count.Load() >= specMemoCap }

func (m *specMemo) put(key string, rec *specRecord) specPut {
	if m.full() {
		return specFull
	}
	st := m.stripe(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.m == nil {
		st.m = make(map[string]*specRecord)
	}
	if _, ok := st.m[key]; ok {
		return specDup
	}
	st.m[key] = rec
	m.count.Add(1)
	return specStored
}

func (m *specMemo) has(key string) bool {
	st := m.stripe(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.m[key]
	return ok
}

// take removes and returns the record for key, or nil.
func (m *specMemo) take(key string) *specRecord {
	st := m.stripe(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.m[key]
	if !ok {
		return nil
	}
	delete(st.m, key)
	m.count.Add(-1)
	return rec
}

// specQueue is the steal queue: the commit walk publishes every backtrack
// point it schedules at a not-yet-finished frame, idle speculators pop from
// the deep end — the most recently discovered points first, which sit at
// the depths the walk is currently working and are therefore the least
// likely to have been consumed by the time their records are built.
type specQueue struct {
	mu     sync.Mutex
	cond   sync.Cond
	items  []specTarget
	closed bool
}

func newSpecQueue() *specQueue {
	q := &specQueue{}
	q.cond.L = &q.mu
	return q
}

// publish appends one steal target. Overflow drops the oldest targets.
func (q *specQueue) publish(t specTarget) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.items = append(q.items, t)
	if over := len(q.items) - specQueueCap; over > 0 {
		q.items = append(q.items[:0], q.items[over:]...)
	}
	q.mu.Unlock()
	q.cond.Broadcast()
}

// pop blocks for the next target from the deep end; false means the queue
// was closed and drained.
func (q *specQueue) pop() (specTarget, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return specTarget{}, false
	}
	t := q.items[len(q.items)-1]
	q.items[len(q.items)-1] = specTarget{}
	q.items = q.items[:len(q.items)-1]
	return t, true
}

func (q *specQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.items = nil
	q.mu.Unlock()
	q.cond.Broadcast()
}

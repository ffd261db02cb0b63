package explore

import (
	"sync"
	"sync/atomic"
)

// Tuning constants of the speculation kernel. They bound memory and
// per-steal work, not correctness: results are bit-identical to the
// sequential engines whatever their values.
const (
	// pdMemoCap bounds the number of not-yet-consumed speculative expansion
	// records; speculators back off when the table is full.
	pdMemoCap = 1 << 13
	// pdQueueCap bounds the steal queue; when it overflows, the shallowest
	// (oldest) targets are dropped — they are the furthest from being
	// committed, so dropping them loses the least useful speculation.
	pdQueueCap = 4096
	// pdStealBudget is the number of states one stolen subtree may expand
	// before the thief reports back and steals afresh.
	pdStealBudget = 128
)

// SpecEngine is what a search engine supplies to the speculation kernel:
// the few things ParallelDFS, ParallelNDFS and dpor.ExploreParallel
// genuinely disagree on. N is the engine's node type — a steal target or a
// state below one — and R its expansion record. Every hook runs on
// speculator goroutines, concurrently with the commit walk and with each
// other, so all of them must be read-only on shared state.
type SpecEngine[N, R any] struct {
	// Open turns a stolen target into the node to expand; false drops the
	// target. Nil means targets are nodes already (DFS, NDFS: a pending
	// sibling is an executed successor). DPOR's targets are unexecuted
	// backtrack events, which Open executes.
	Open func(target N) (N, bool)
	// Key is the memo key of a node: the key the commit walk will Take the
	// node's record under.
	Key func(N) string
	// Probe optionally reports that the walk has already committed the
	// state with the given key (a non-mutating visited-store lookup), so
	// its record could only go unused. It is only ever a hint: a stale
	// answer wastes work, never changes results.
	Probe func(key string) bool
	// Build computes a node's expansion record and the child nodes to
	// speculate on next, in the order the walk would enter them.
	Build func(N) (*R, []N)
}

// Speculation is the speculate half of the speculate-and-commit
// architecture shared by ParallelDFS, ParallelNDFS and
// dpor.ExploreParallel. A single commit walk — the sequential engine
// verbatim — decides everything observable; Options.Workers speculators
// (default runtime.GOMAXPROCS(0)) run ahead of it and precompute expansion
// records, which the walk consumes instead of computing inline.
//
// Work sharing: the walk Publishes subtree roots it has not entered yet
// (pending siblings of a new DFS frame, freshly scheduled DPOR backtrack
// points). An idle speculator pops the most recently published — deepest —
// target, the one the walk will reach soonest, and explores its subtree
// depth-first for at most Options.StealDepth events below it and at most
// pdStealBudget states (a bounded batch per steal), memoizing one record
// per state under the engine's key. Speculators skip states already
// memoized or, by the engine's Probe, already committed; they back off
// while the memo table is full and resume once the walk's Takes drain it.
//
// Guarantee: a record is a pure function of its node (Enabled, Execute,
// canonicalization, the expander and the invariant are deterministic and
// read-only), so it equals what the walk would compute inline, whichever
// worker built it and whenever. Everything path-dependent — the search
// stack, the ignoring proviso, visit order, limits, DPOR's clocks and
// backtrack sets — stays inside the walk. Records are therefore never
// wrong, only possibly missing, and the committed Verdict, Stats (minus the
// volatile fields) and Trace are bit-identical to the sequential engine for
// any worker count.
//
// Soundness requires the read-only contract of ParallelBFS: the protocol's
// Enabled/Execute/CheckInvariant, the Canon function and the Expander must
// be safe for concurrent use and must not mutate shared state.
//
// A nil *Speculation is the sequential engine: Take misses, Publish and
// Close do nothing.
type Speculation[N, R any] struct {
	memo   specMemo[R]
	queue  *specQueue[N]
	stop   atomic.Bool
	wg     sync.WaitGroup
	visits atomic.Int64 // records built and memoized
	hits   int          // records the walk consumed; walk goroutine only
}

// Speculate starts opts.Workers speculators over eng. The caller owns the
// returned kernel and must Close it.
func Speculate[N, R any](opts Options, eng SpecEngine[N, R]) *Speculation[N, R] {
	s := &Speculation[N, R]{queue: newSpecQueue[N]()}
	depthBudget := opts.stealDepth()
	workers := opts.workers()
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.steal(eng, depthBudget)
	}
	return s
}

// steal is one speculator's loop: pop a target and memoize expansion
// records for the subtree below it, depth-first, until the per-steal state
// budget, the depth budget, the memo capacity or shutdown stops it.
func (s *Speculation[N, R]) steal(eng SpecEngine[N, R], depthBudget int) {
	defer s.wg.Done()
	type specNode struct {
		n     N
		depth int
	}
	nodes := make([]specNode, 0, 64)
	for {
		tgt, ok := s.queue.pop()
		if !ok {
			return
		}
		if eng.Open != nil {
			if tgt, ok = eng.Open(tgt); !ok {
				continue
			}
		}
		nodes = append(nodes[:0], specNode{n: tgt})
		budget := pdStealBudget
		for len(nodes) > 0 && budget > 0 && !s.stop.Load() && !s.memo.full() {
			n := nodes[len(nodes)-1]
			nodes = nodes[:len(nodes)-1]
			key := eng.Key(n.n)
			if s.memo.has(key) || (eng.Probe != nil && eng.Probe(key)) {
				continue
			}
			rec, kids := eng.Build(n.n)
			if !s.memo.put(key, rec) {
				continue // another speculator recorded the key first, or the table just filled up
			}
			s.visits.Add(1)
			budget--
			if n.depth+1 > depthBudget {
				continue
			}
			for i := len(kids) - 1; i >= 0; i-- {
				nodes = append(nodes, specNode{n: kids[i], depth: n.depth + 1})
			}
		}
	}
}

// Take consumes the speculative record memoized under key, or returns nil
// when no speculator got there first. Only the commit walk calls it.
func (s *Speculation[N, R]) Take(key string) *R {
	if s == nil {
		return nil
	}
	rec := s.memo.take(key)
	if rec != nil {
		s.hits++
	}
	return rec
}

// Publish offers subtree roots the walk has not entered yet as steal
// targets, given in the order the walk will enter them.
func (s *Speculation[N, R]) Publish(targets ...N) {
	if s != nil {
		s.queue.publish(targets)
	}
}

// Close stops the speculators, waits for them to exit and reports the
// kernel's activity in the volatile speculation counters of stats. Engines
// defer it so the workers are gone before their own deferred bookkeeping
// reads the store.
func (s *Speculation[N, R]) Close(stats *Stats) {
	if s == nil {
		return
	}
	s.stop.Store(true)
	s.queue.close()
	s.wg.Wait()
	stats.SpeculatedVisits = int(s.visits.Load())
	stats.SpeculationHits = s.hits
}

// specStripe is one lock-striped shard of a specMemo.
type specStripe[R any] struct {
	mu sync.Mutex
	m  map[string]*R
}

// specMemo is the striped table of speculative expansion records, keyed by
// the engine's node key. Speculators insert, the commit walk consumes;
// entries live until the walk first discovers their state (or the search
// ends). The capacity bound keeps runaway speculation from holding
// unbounded state.
type specMemo[R any] struct {
	stripes [64]specStripe[R]
	count   atomic.Int64
}

func (m *specMemo[R]) stripe(key string) *specStripe[R] {
	return &m.stripes[fingerprint(key)[15]&63]
}

// full reports whether the table is at capacity. Thieves check it before
// paying for an expansion; put re-checks, so the answer being stale only
// costs (or saves) one speculative build.
func (m *specMemo[R]) full() bool { return m.count.Load() >= pdMemoCap }

// put memoizes rec under key unless the table is full or already holds a
// record for key (the first one stays).
func (m *specMemo[R]) put(key string, rec *R) bool {
	if m.full() {
		return false
	}
	st := m.stripe(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.m == nil {
		st.m = make(map[string]*R)
	}
	if _, ok := st.m[key]; ok {
		return false
	}
	st.m[key] = rec
	m.count.Add(1)
	return true
}

func (m *specMemo[R]) has(key string) bool {
	st := m.stripe(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.m[key]
	return ok
}

// take removes and returns the record for key, or nil.
func (m *specMemo[R]) take(key string) *R {
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

// specQueue is the steal queue: the commit walk publishes subtree roots,
// idle speculators pop from the deep end (the most recently published
// batch first, in the walk's entry order). Those are the subtrees the walk
// will enter soonest, so their records are the least likely to go stale.
type specQueue[T any] struct {
	mu     sync.Mutex
	cond   sync.Cond
	items  []T
	closed bool
}

func newSpecQueue[T any]() *specQueue[T] {
	q := &specQueue[T]{}
	q.cond.L = &q.mu
	return q
}

// publish appends ts reversed, so that the first of them is popped first.
// Overflow drops the shallowest targets.
func (q *specQueue[T]) publish(ts []T) {
	if len(ts) == 0 {
		return
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	for i := len(ts) - 1; i >= 0; i-- {
		q.items = append(q.items, ts[i])
	}
	if over := len(q.items) - pdQueueCap; over > 0 {
		q.items = append(q.items[:0], q.items[over:]...)
	}
	q.mu.Unlock()
	q.cond.Broadcast()
}

// pop blocks for the next target from the deep end; false means the queue
// was closed and drained.
func (q *specQueue[T]) pop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	t := q.items[len(q.items)-1]
	q.items[len(q.items)-1] = zero
	q.items = q.items[:len(q.items)-1]
	return t, true
}

func (q *specQueue[T]) close() {
	q.mu.Lock()
	q.closed = true
	q.items = nil
	q.mu.Unlock()
	q.cond.Broadcast()
}

package explore

import (
	"mpbasset/internal/core"
)

// noProviso is the Proviso of searches that need no ignoring discipline
// (stateless search, whose depth bound guarantees termination and which
// never claims Verified on a cut run).
type noProviso struct{}

func (noProviso) OnStack(string) bool    { return false }
func (noProviso) Ignoring([]string) bool { return false }

type parentLink struct {
	parent string
	ev     core.Event
}

// bfsProviso is the queue variant of the ignoring proviso (C3) shared by
// the BFS engines: a reduced expansion of a node may be kept only if it
// discovers at least one state that was not yet visited when the node's
// level began. Otherwise the reduced expansion enqueues nothing new, the
// deferred events would never be retried on a cycle, and the engine
// promotes the expansion to a full one.
//
// Membership in the level-start snapshot is computed without copying the
// store: a key is in the snapshot iff the store already holds it AND it
// was not first inserted during the current level (the fresh set). The
// sequential engine maintains fresh incrementally in FIFO order;
// ParallelBFS derives the same predicate after its level barrier from the
// per-successor insert outcomes — both evaluate the identical,
// order-independent "visited before this level began" test, which is what
// keeps parallel verdicts bit-identical to sequential ones.
type bfsProviso struct {
	has   HasStore // nil when the store cannot answer membership
	fresh map[string]struct{}
	level int
}

// newBFSProviso builds the proviso for store. Tracking is only armed when
// a reducing expander is present; unreduced searches skip the per-state
// bookkeeping entirely.
func newBFSProviso(store Store, exp Expander) *bfsProviso {
	if _, full := exp.(FullExpander); full {
		return nil
	}
	b := &bfsProviso{fresh: make(map[string]struct{})}
	b.has, _ = store.(HasStore)
	return b
}

// OnStack implements Proviso: BFS has no stack.
func (b *bfsProviso) OnStack(string) bool { return false }

// Ignoring implements Proviso: true iff every successor was already
// visited when the current level began. An unknown membership (store
// without Has) counts as visited, conservatively promoting the expansion.
func (b *bfsProviso) Ignoring(succKeys []string) bool {
	for _, k := range succKeys {
		if b.has == nil {
			continue
		}
		//lint:has-ok documented proviso site: the level-snapshot test only needs membership of states visited before this level, and newBFSProviso leaves has nil (conservative full promotion) for stores that cannot answer exactly
		if !b.has.Has(k) {
			return false
		}
		if _, fresh := b.fresh[k]; fresh {
			return false
		}
	}
	return true
}

// advance resets the fresh set when the search crosses into a new level.
func (b *bfsProviso) advance(depth int) {
	if depth != b.level {
		b.level = depth
		clear(b.fresh)
	}
}

// markNew records a key first inserted during the current level.
func (b *bfsProviso) markNew(key string) { b.fresh[key] = struct{}{} }

// succKeys collects the canonical keys of succs into buf.
func succKeys(buf []string, succs []dfsSucc) []string {
	buf = buf[:0]
	for i := range succs {
		buf = append(buf, succs[i].key)
	}
	return buf
}

// BFS runs a stateful breadth-first search. Counterexamples are
// shortest-path when TrackTrace is set. BFS enforces the queue variant of
// the ignoring proviso (C3): a reduced expansion whose successors were all
// visited before its level began is promoted to a full expansion (counted
// in Stats.ProvisoExpansions), keeping partial-order reduction sound on
// cyclic state graphs — the BFS counterpart of the DFS stack proviso.
func BFS(p *core.Protocol, opts Options) (result *Result, err error) {
	init, err := p.InitialState()
	if err != nil {
		return nil, err
	}
	var (
		res     Result
		store   = opts.store()
		canon   = opts.canon()
		exp     = opts.expander()
		prov    = newBFSProviso(store, exp)
		lim     = newLimiter(opts)
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

	type node struct {
		st    *core.State
		key   string
		depth int
	}
	var parents map[string]parentLink
	if opts.TrackTrace {
		parents = make(map[string]parentLink)
	}
	trace := func(key string) []Step { return traceFrom(parents, key) }

	ikey := canon(init)
	store.Seen(ikey)
	res.Stats.States = 1
	if verr := p.CheckInvariant(init); verr != nil {
		res.Verdict = VerdictViolated
		res.Violation = verr
		return &res, nil
	}
	var queue fifo[node]
	queue.push(node{st: init, key: ikey})

	for queue.len() > 0 {
		n := queue.pop()
		if n.depth > res.Stats.MaxDepth {
			res.Stats.MaxDepth = n.depth
		}
		if prov != nil {
			prov.advance(n.depth)
		}
		if lim.depthExceeded(n.depth) {
			limited = true
			continue
		}
		enabled := p.Enabled(n.st)
		if len(enabled) == 0 {
			res.Stats.Deadlocks++
			continue
		}
		var chosen []core.Event
		if prov != nil {
			chosen = exp.Expand(n.st, enabled, prov)
		} else {
			chosen = enabled
		}
		reduced := len(chosen) < len(enabled)
		succs, err := execAll(p, &step, n.st, chosen, canon, has)
		if err != nil {
			return nil, err
		}
		if reduced {
			keyBuf = succKeys(keyBuf, succs)
			if prov.Ignoring(keyBuf) {
				// Queue proviso (C3): the reduced expansion rediscovered
				// only states visited before this level — its deferred
				// events could be ignored forever around a cycle, so the
				// state is re-expanded fully.
				reduced = false
				res.Stats.ProvisoExpansions++
				if succs, err = execAll(p, &step, n.st, enabled, canon, has); err != nil {
					return nil, err
				}
			}
		}
		if reduced {
			res.Stats.ReducedExpansions++
		} else {
			res.Stats.FullExpansions++
		}
		for i := range succs {
			sc := &succs[i]
			res.Stats.Events++
			if sc.st == nil || store.Seen(sc.key) {
				res.Stats.Revisits++
				continue
			}
			if prov != nil {
				prov.markNew(sc.key)
			}
			res.Stats.States++
			if parents != nil {
				parents[sc.key] = parentLink{parent: n.key, ev: sc.ev}
			}
			if verr := p.CheckInvariant(sc.st); verr != nil {
				res.Verdict = VerdictViolated
				res.Violation = verr
				res.Trace = trace(sc.key)
				return &res, nil
			}
			if lim.statesExceeded(res.Stats.States) || lim.timeExceeded() {
				limited = true
				queue.reset()
				break
			}
			queue.push(node{st: sc.st, key: sc.key, depth: n.depth + 1})
		}
	}

	if limited {
		res.Verdict = VerdictLimit
	} else {
		res.Verdict = VerdictVerified
	}
	return &res, nil
}

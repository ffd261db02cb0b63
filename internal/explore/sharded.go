package explore

import (
	"sync"
	"sync/atomic"
)

// shardCount is the number of mutex stripes of a ShardedStore. A power of
// two well above typical core counts keeps contention negligible without
// wasting memory on empty maps.
const shardCount = 256

// storeShard is one stripe: a mutex plus the map of that stripe's keys.
// Only one of exact/hashed is populated, matching the store's mode.
type storeShard struct {
	mu     sync.Mutex
	exact  map[string]struct{}
	hashed map[[16]byte]struct{}
}

// insertLocked records one key in the stripe (which must be locked) and
// reports whether it was already present.
func (sh *storeShard) insertLocked(exact bool, key string, fp [16]byte) bool {
	if exact {
		if sh.exact == nil {
			sh.exact = make(map[string]struct{})
		}
		if _, dup := sh.exact[key]; dup {
			return true
		}
		sh.exact[key] = struct{}{}
		return false
	}
	if sh.hashed == nil {
		sh.hashed = make(map[[16]byte]struct{})
	}
	if _, dup := sh.hashed[fp]; dup {
		return true
	}
	sh.hashed[fp] = struct{}{}
	return false
}

// ShardedStore is a concurrent visited-state set: the key space is
// partitioned over mutex-striped shards selected by key hash, so Seen is
// linearizable per key and goroutines hammering distinct stripes do not
// contend. It wraps both storage modes of the sequential stores behind the
// Store interface: exact full-key storage (NewShardedExactStore, the
// ExactStore analogue) and 128-bit fingerprints (NewShardedHashStore, the
// HashStore analogue). Both modes pick the stripe by the fingerprint's
// last byte, which is uniform (see fingerprint).
//
// ShardedStore also implements BatchStore: SeenBatch groups its keys by
// stripe and takes each stripe lock once per batch instead of once per
// key, which is what ParallelBFS's workers use to amortize lock traffic.
//
// ParallelBFS requires a concurrency-safe store and uses a ShardedStore by
// default; the sequential engines accept one too (it is merely slower than
// the unsynchronized stores there).
type ShardedStore struct {
	exact  bool
	count  atomic.Int64
	shards [shardCount]storeShard
}

// NewShardedExactStore returns an empty concurrent store keeping full
// canonical keys: collision-free, memory-hungry.
func NewShardedExactStore() *ShardedStore { return &ShardedStore{exact: true} }

// NewShardedHashStore returns an empty concurrent store keeping 128-bit
// fingerprints instead of full keys, trading a negligible collision
// probability for a large memory saving on multi-million-state runs.
func NewShardedHashStore() *ShardedStore { return &ShardedStore{} }

// Seen implements Store. It records key and reports whether it was already
// present; for each distinct key exactly one call returns false, however
// many goroutines race on it.
func (s *ShardedStore) Seen(key string) bool {
	fp := fingerprint(key)
	sh := &s.shards[fp[15]]
	sh.mu.Lock()
	dup := sh.insertLocked(s.exact, key, fp)
	sh.mu.Unlock()
	if !dup {
		s.count.Add(1)
	}
	return dup
}

// SeenBatch implements BatchStore: it records every key and returns one
// "was already present" answer per key, taking each involved stripe lock
// once for the whole batch. Keys are committed in index order within each
// stripe, so a key duplicated inside one batch reports false exactly at its
// first occurrence, and the exactly-one-false guarantee of Seen holds
// across any mix of racing SeenBatch and Seen callers.
func (s *ShardedStore) SeenBatch(keys []string) []bool {
	n := len(keys)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []bool{s.Seen(keys[0])}
	}
	dups := make([]bool, n)
	fps := make([][16]byte, n)
	done := make([]bool, n)
	for i, k := range keys {
		fps[i] = fingerprint(k)
	}
	var added int64
	// Batches are small (a worker's successor buffer), so the stripe
	// grouping is a forward scan per distinct stripe rather than an
	// allocated index.
	for i := 0; i < n; i++ {
		if done[i] {
			continue
		}
		stripe := fps[i][15]
		sh := &s.shards[stripe]
		sh.mu.Lock()
		for j := i; j < n; j++ {
			if done[j] || fps[j][15] != stripe {
				continue
			}
			done[j] = true
			dups[j] = sh.insertLocked(s.exact, keys[j], fps[j])
			if !dups[j] {
				added++
			}
		}
		sh.mu.Unlock()
	}
	if added > 0 {
		s.count.Add(added)
	}
	return dups
}

// Has implements HasStore: a non-mutating membership probe, linearizable
// per key like Seen.
func (s *ShardedStore) Has(key string) bool {
	fp := fingerprint(key)
	sh := &s.shards[fp[15]]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.exact {
		_, ok := sh.exact[key]
		return ok
	}
	_, ok := sh.hashed[fp]
	return ok
}

// Len implements Store.
func (s *ShardedStore) Len() int { return int(s.count.Load()) }

// ConcurrencySafe implements ConcurrentStore.
func (s *ShardedStore) ConcurrencySafe() {}

var (
	_ BatchStore      = (*ShardedStore)(nil)
	_ HasStore        = (*ShardedStore)(nil)
	_ ConcurrentStore = (*ShardedStore)(nil)
)

// syncStore serializes an arbitrary Store behind one mutex — the fallback
// ParallelBFS uses when handed a store that is not a ShardedStore, keeping
// any Store correct under concurrency at the price of contention. Its
// SeenBatch takes the mutex once per batch, so even the fallback benefits
// from batching.
type syncStore struct {
	mu    sync.Mutex
	inner Store
}

func (s *syncStore) Seen(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Seen(key)
}

func (s *syncStore) SeenBatch(keys []string) []bool {
	dups := make([]bool, len(keys))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, k := range keys {
		dups[i] = s.inner.Seen(k)
	}
	return dups
}

func (s *syncStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Len()
}

var _ BatchStore = (*syncStore)(nil)

// concurrentStore returns a store safe for concurrent Seen/SeenBatch calls:
// the configured store if it declares itself concurrency-safe (ShardedStore,
// SpillStore, or any caller-supplied ConcurrentStore), a fresh sharded
// exact store when none is configured (mirroring the sequential ExactStore
// default), or the configured store wrapped behind a single mutex.
func (o *Options) concurrentStore() Store {
	switch st := o.Store.(type) {
	case nil:
		return NewShardedExactStore()
	case ConcurrentStore:
		return st
	default:
		return &syncStore{inner: st}
	}
}

package explore

import (
	"encoding/binary"
	"math/bits"
)

// Store is the visited-state set of a stateful search. Stores are
// insert-only: once Seen has recorded a key, every later Seen of it reports
// it present.
type Store interface {
	// Seen records key and reports whether it was already present.
	Seen(key string) bool
	// Len returns the number of distinct keys recorded.
	Len() int
}

// BatchStore is a Store with a batched insert fast path. SeenBatch records
// every key and reports, per key, whether it was already present — with the
// same exactly-one-false-per-distinct-key guarantee as Seen, including for
// duplicates within a single batch (the first occurrence reports false).
// Concurrent stores use batching to amortize their per-key locking:
// ShardedStore takes each stripe lock once per batch instead of once per
// key.
type BatchStore interface {
	Store
	// SeenBatch records keys and returns one "was already present" answer
	// per key, index-aligned with keys.
	SeenBatch(keys []string) []bool
}

// HasStore is a Store with a non-mutating membership probe. Because stores
// are insert-only, Has(k) true implies that every later Seen(k) is true.
//
// DFS and BFS probe each successor's key before they keep the successor:
// one the store already holds keeps only its event and key, and counts as
// a revisit without a second probe. For that use a stale false is allowed,
// and a wrapper may always answer false; it only costs a successor kept
// that could have been dropped. The sequential BFS engine also needs Has
// for the queue variant of the ignoring proviso (C3): deciding whether a
// reduced expansion discovered anything new must not itself record the
// probed keys. The proviso reads a false as "not visited before this
// level", so a store that answers false for a key it holds keeps reduced
// expansions the proviso should promote; a wrapper that cannot answer
// exactly should not offer Has to a reduced BFS. All stores of this package
// implement it; without Has, DFS and BFS keep every successor and the
// proviso degrades conservatively (every reduced expansion is promoted to
// a full one — sound, merely unreduced).
type HasStore interface {
	Store
	// Has reports whether key was already recorded, without recording it.
	Has(key string) bool
}

// ConcurrentStore marks a Store whose methods are safe for concurrent
// callers. ParallelBFS uses a marked store directly; an unmarked
// caller-supplied store is serialized behind a mutex instead (see
// Options.concurrentStore). ShardedStore and SpillStore are marked.
type ConcurrentStore interface {
	Store
	// ConcurrencySafe is a marker method with no behavior.
	ConcurrencySafe()
}

// SpillReporter is implemented by stores with a disk tier (SpillStore).
// The engines copy its counters into Stats when a search ends, so spill
// activity shows up next to the search statistics.
type SpillReporter interface {
	// SpillStats reports run files written (merges included), total bytes
	// written to disk, and membership probes that consulted the disk
	// tier.
	SpillStats() (runs int, spilledBytes, diskProbes int64)
}

// captureStoreStats copies store-side counters into st once a search ends:
// spill counters when the store has a disk tier, and fill/omission figures
// when the store is lossy. A no-op for exact in-memory stores.
func captureStoreStats(store Store, st *Stats) {
	if sr, ok := store.(SpillReporter); ok {
		st.SpillRuns, st.SpillBytes, st.DiskProbes = sr.SpillStats()
	}
	if br, ok := store.(BitstateReporter); ok {
		st.BitstateFill, st.BitstateOmission = br.BitstateStats()
	}
}

// FailableStore is implemented by stores whose membership probes can fail
// after the fact — probes have no error return, so a failing tier (a
// SpillStore disk read) answers "not present" and records the failure for
// Err. The engines check Err once the search ends and turn a recorded
// failure into a search error: a probe that silently under-reports
// membership could otherwise cost termination on cyclic graphs.
// Caller-supplied stores with deferred failure modes get the same
// treatment by implementing this interface.
type FailableStore interface {
	Store
	// Err returns the first deferred probe failure, or nil.
	Err() error
}

// storeErr surfaces a deferred store failure once a search has finished;
// in-memory stores never fail.
func storeErr(store Store) error {
	if s, ok := store.(FailableStore); ok {
		return s.Err()
	}
	return nil
}

// seenBatch flushes keys through the store's batched fast path when it has
// one, and degenerates to a per-key loop otherwise.
func seenBatch(store Store, keys []string) []bool {
	if bs, ok := store.(BatchStore); ok {
		return bs.SeenBatch(keys)
	}
	dups := make([]bool, len(keys))
	for i, k := range keys {
		dups[i] = store.Seen(k)
	}
	return dups
}

// MurmurHash3_x64_128 multiplication constants.
const (
	murmurC1 = 0x87c37b91114253d5
	murmurC2 = 0x4cf5ad432745937f
)

// fingerprint is the 128-bit MurmurHash3_x64_128 of key with seed 0, laid
// out canonically: h1 little-endian in bytes 0–7, h2 in bytes 8–15. It is
// the one state fingerprint every hashed store shares (HashStore,
// ShardedStore, SpillStore's hot tier, runs and bloom, BitstateStore), so
// it runs on every visited-set probe: it consumes 16-byte blocks as two word loads (see le64) and never
// allocates. The seed is fixed, unlike hash/maphash's per-process one, so
// lossy coverage and spill order are the same on every run.
//
// The concurrent stores pick their stripe by fp[15], the top byte of h2.
// After the finaliser every output bit depends on every input bit, so that
// byte is uniform even across state keys that share long structural
// prefixes and differ only in their last few bytes.
func fingerprint(key string) [16]byte {
	var h1, h2 uint64
	n := len(key)
	i := 0
	for ; i+16 <= n; i += 16 {
		k1 := le64(key[i:])
		k2 := le64(key[i+8:])
		h1 ^= bits.RotateLeft64(k1*murmurC1, 31) * murmurC2
		h1 = (bits.RotateLeft64(h1, 27)+h2)*5 + 0x52dce729
		h2 ^= bits.RotateLeft64(k2*murmurC2, 33) * murmurC1
		h2 = (bits.RotateLeft64(h2, 31)+h1)*5 + 0x38495ab5
	}
	// Tail: the last n%16 bytes, little-endian, k1 from the first eight.
	var k1, k2 uint64
	tail := key[i:]
	for j := len(tail) - 1; j >= 8; j-- {
		k2 = k2<<8 | uint64(tail[j])
	}
	for j := min(len(tail), 8) - 1; j >= 0; j-- {
		k1 = k1<<8 | uint64(tail[j])
	}
	if len(tail) > 8 {
		h2 ^= bits.RotateLeft64(k2*murmurC2, 33) * murmurC1
	}
	if len(tail) > 0 {
		h1 ^= bits.RotateLeft64(k1*murmurC1, 31) * murmurC2
	}
	h1 ^= uint64(n)
	h2 ^= uint64(n)
	h1 += h2
	h2 += h1
	h1 = mix64(h1)
	h2 = mix64(h2)
	h1 += h2
	h2 += h1
	var fp [16]byte
	binary.LittleEndian.PutUint64(fp[:8], h1)
	binary.LittleEndian.PutUint64(fp[8:], h2)
	return fp
}

// le64 reads the first eight bytes of s little-endian; the compiler merges
// the byte loads into one.
func le64(s string) uint64 {
	_ = s[7] // one bounds check for all eight loads
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// mix64 is MurmurHash3's 64-bit finaliser (fmix64): a bijective avalanche
// that spreads every input bit over the whole word.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ExactStore keeps full canonical keys: collision-free, memory-hungry.
// The zero value is ready to use.
type ExactStore struct {
	m map[string]struct{}
}

// NewExactStore returns an empty exact store.
func NewExactStore() *ExactStore { return &ExactStore{} }

// Seen implements Store.
func (s *ExactStore) Seen(key string) bool {
	if s.m == nil {
		s.m = make(map[string]struct{})
	}
	if _, ok := s.m[key]; ok {
		return true
	}
	s.m[key] = struct{}{}
	return false
}

// Has implements HasStore.
func (s *ExactStore) Has(key string) bool {
	_, ok := s.m[key]
	return ok
}

// Len implements Store.
func (s *ExactStore) Len() int { return len(s.m) }

// HashStore keeps 128-bit fingerprints instead of full keys, trading a
// negligible collision probability for a large memory saving on
// multi-million-state runs (the paper's larger table rows). The zero value
// is ready to use.
type HashStore struct {
	m map[[16]byte]struct{}
}

// NewHashStore returns an empty hashed store.
func NewHashStore() *HashStore { return &HashStore{} }

// Seen implements Store.
func (s *HashStore) Seen(key string) bool {
	if s.m == nil {
		s.m = make(map[[16]byte]struct{})
	}
	k := fingerprint(key)
	if _, ok := s.m[k]; ok {
		return true
	}
	s.m[k] = struct{}{}
	return false
}

// Has implements HasStore.
func (s *HashStore) Has(key string) bool {
	_, ok := s.m[fingerprint(key)]
	return ok
}

// Len implements Store.
func (s *HashStore) Len() int { return len(s.m) }

var (
	_ HasStore = (*ExactStore)(nil)
	_ HasStore = (*HashStore)(nil)
)

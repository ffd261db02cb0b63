package explore

import (
	"encoding/binary"
	"math"
	"sync"
)

// BitstateStore is an explicitly lossy visited store: Spin-style
// bitstate/hash-compaction. Each state is reduced to k independent bit
// positions in a fixed-size bit array (double hashing over the same
// 128-bit fingerprint the exact stores use); a state is "seen" iff all k
// bits are set. The store never grows — memory is exactly the budget
// chosen up front — but two distinct states may collide on all k probes,
// in which case the second is silently treated as visited and its subtree
// is never explored.
//
// That makes a bitstate run a coverage claim, not a verdict: a reported
// violation is real (the counterexample trace replays like any other), but
// "no violation" only means none was found in the states actually visited.
// The facade therefore rejects Lossy for DPOR and stateless modes (whose
// soundness arguments assume the visited set is exact), and the
// differential suites (FuzzEngineAgreement) never compare lossy results
// against exact runs for bit-identity. Sequential engines over a
// BitstateStore are still deterministic — same budget, same k, same
// schedule, same omissions — but parallel engines' visit order changes
// which colliding state wins, so lossy stats are classified volatile
// (eval.VolatileStatsFields).
//
// BitstateStats reports the fill ratio (set bits / total bits) and the
// standard omission estimate fill^k: the probability that a fresh state
// finds all k of its probe bits already set. Both are surfaced in Stats
// and the mpcheck report so a sweep can be judged — a fill near 1 means
// the array saturated and the state count is a floor, not a census.
//
// All operations take an internal mutex, so the store is safe for the
// parallel engines (ConcurrencySafe reports true) and still cheap
// sequentially.
type BitstateStore struct {
	mu      sync.Mutex
	words   []uint64
	mask    uint64 // len(words)*64 - 1; bit count is a power of two
	k       int
	n       int   // states admitted (Seen returned false)
	setBits int64 // bits currently set, for the fill ratio
}

// Compile-time checks: BitstateStore participates in the store matrix as a
// batched, concurrency-safe store with its own stats reporter.
var (
	_ Store            = (*BitstateStore)(nil)
	_ BatchStore       = (*BitstateStore)(nil)
	_ HasStore         = (*BitstateStore)(nil)
	_ ConcurrentStore  = (*BitstateStore)(nil)
	_ BitstateReporter = (*BitstateStore)(nil)
)

// BitstateReporter is implemented by lossy stores that can estimate their
// own unreliability. Engines copy the numbers into Stats.BitstateFill and
// Stats.BitstateOmission at the end of a run (see captureStoreStats).
type BitstateReporter interface {
	// BitstateStats returns the fill ratio of the bit array in [0,1] and
	// the estimated probability that a new distinct state is wrongly
	// reported as visited (fill^k).
	BitstateStats() (fill, omission float64)
}

// Default sizing: 64 MiB of bits when no budget is given, 3 probes per
// state (Spin's classic default region), and a floor so a degenerate
// budget still yields a working array.
const (
	defaultBitstateBytes = 64 << 20
	defaultBitstateK     = 3
	minBitstateWords     = 8 // 512 bits
	maxBitstateK         = 16
)

// NewBitstateStore builds a bitstate store with at most budgetBytes of bit
// array (rounded down to a power of two of bits; minimum 64 bytes) and k
// hash probes per state. budgetBytes <= 0 selects a 64 MiB default; k <= 0
// selects 3. More probes lower the omission probability at low fill but
// saturate the array k times faster.
func NewBitstateStore(budgetBytes int64, k int) *BitstateStore {
	if budgetBytes <= 0 {
		budgetBytes = defaultBitstateBytes
	}
	if k <= 0 {
		k = defaultBitstateK
	}
	if k > maxBitstateK {
		k = maxBitstateK
	}
	words := uint64(budgetBytes / 8)
	// Round down to a power of two so probe indices reduce with a mask.
	for words&(words-1) != 0 {
		words &= words - 1
	}
	if words < minBitstateWords {
		words = minBitstateWords
	}
	return &BitstateStore{
		words: make([]uint64, words),
		mask:  words*64 - 1,
		k:     k,
	}
}

// probe returns the bit index of the i-th hash probe for fingerprint
// (h1, h2): classic double hashing, with h2 forced odd so every probe
// sequence walks the full power-of-two array.
func probe(h1, h2 uint64, i int, mask uint64) uint64 {
	return (h1 + uint64(i)*h2) & mask
}

// hashes derives the double-hashing pair from the fingerprint. Both halves
// are re-finalised with mix64. The fingerprint already ends in that
// finaliser, so the extra round adds no dispersion; it stays because it
// decides the probe positions, and with them which states a lossy run
// omits. The lossy pins (ExampleCheck_lossy, the bench's bitstate cell)
// were taken with it: without it ExampleCheck_lossy loses one more state.
func (b *BitstateStore) hashes(key string) (h1, h2 uint64) {
	fp := fingerprint(key)
	h1 = mix64(binary.BigEndian.Uint64(fp[:8]))
	h2 = mix64(binary.BigEndian.Uint64(fp[8:])) | 1
	return h1, h2
}

// seenLocked reports whether all k probe bits for (h1, h2) are set,
// setting any that are not. Callers hold b.mu.
func (b *BitstateStore) seenLocked(h1, h2 uint64) bool {
	seen := true
	for i := 0; i < b.k; i++ {
		idx := probe(h1, h2, i, b.mask)
		word, bit := idx/64, uint64(1)<<(idx%64)
		if b.words[word]&bit == 0 {
			seen = false
			b.words[word] |= bit
			b.setBits++
		}
	}
	if !seen {
		b.n++
	}
	return seen
}

// Seen reports whether key's probe bits were all already set, marking them
// as a side effect. A false return admits the state; a true return may be
// a hash collision with up to k earlier states — the lossy case.
func (b *BitstateStore) Seen(key string) bool {
	h1, h2 := b.hashes(key)
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seenLocked(h1, h2)
}

// SeenBatch marks every key and reports per-key seen-ness under a single
// lock acquisition. Duplicates within the batch are seen on their second
// occurrence, matching the exact stores' batch semantics.
func (b *BitstateStore) SeenBatch(keys []string) []bool {
	seen := make([]bool, len(keys))
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, key := range keys {
		h1, h2 := b.hashes(key)
		seen[i] = b.seenLocked(h1, h2)
	}
	return seen
}

// Has reports whether key's probe bits are all set, without modifying the
// array (the BFS queue proviso uses this).
func (b *BitstateStore) Has(key string) bool {
	h1, h2 := b.hashes(key)
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 0; i < b.k; i++ {
		idx := probe(h1, h2, i, b.mask)
		if b.words[idx/64]&(uint64(1)<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// Len returns the number of states admitted (Seen returned false). Unlike
// the exact stores this undercounts the reachable set by exactly the
// omitted states.
func (b *BitstateStore) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// ConcurrencySafe marks the store as usable by the parallel engines; all
// operations serialize on an internal mutex.
func (b *BitstateStore) ConcurrencySafe() {}

// BitstateStats returns the current fill ratio and the fill^k omission
// estimate. Safe to call at any point during or after a run.
func (b *BitstateStore) BitstateStats() (fill, omission float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fill = float64(b.setBits) / float64(uint64(len(b.words))*64)
	return fill, math.Pow(fill, float64(b.k))
}

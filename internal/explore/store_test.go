package explore

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
	"testing"
)

// murmur3Ref is a plain MurmurHash3_x64_128 written from the published
// algorithm, independent of fingerprint's tuned code: blocks go through
// binary.LittleEndian on a []byte copy and the tail is folded in byte by
// byte, low byte first, so a slip in fingerprint's merged loads or its
// tail handling shows up as a mismatch at the offending length.
func murmur3Ref(key []byte, seed uint32) [16]byte {
	const c1, c2 = 0x87c37b91114253d5, 0x4cf5ad432745937f
	data := append([]byte(nil), key...)
	h1, h2 := uint64(seed), uint64(seed)
	nblocks := len(data) / 16
	for i := 0; i < nblocks; i++ {
		k1 := binary.LittleEndian.Uint64(data[i*16:])
		k2 := binary.LittleEndian.Uint64(data[i*16+8:])
		k1 *= c1
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= c2
		h1 ^= k1
		h1 = bits.RotateLeft64(h1, 27)
		h1 += h2
		h1 = h1*5 + 0x52dce729
		k2 *= c2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= c1
		h2 ^= k2
		h2 = bits.RotateLeft64(h2, 31)
		h2 += h1
		h2 = h2*5 + 0x38495ab5
	}
	var k1, k2 uint64
	for j, b := range data[nblocks*16:] {
		if j < 8 {
			k1 |= uint64(b) << (8 * j)
		} else {
			k2 |= uint64(b) << (8 * (j - 8))
		}
	}
	tail := len(data) % 16
	if tail > 8 {
		k2 *= c2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= c1
		h2 ^= k2
	}
	if tail > 0 {
		k1 *= c1
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= c2
		h1 ^= k1
	}
	fmix := func(x uint64) uint64 {
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		return x
	}
	h1 ^= uint64(len(data))
	h2 ^= uint64(len(data))
	h1 += h2
	h2 += h1
	h1, h2 = fmix(h1), fmix(h2)
	h1 += h2
	h2 += h1
	var out [16]byte
	binary.LittleEndian.PutUint64(out[:8], h1)
	binary.LittleEndian.PutUint64(out[8:], h2)
	return out
}

// TestFingerprintMurmur3Verification runs SMHasher's verification
// procedure for MurmurHash3_x64_128 and checks its published constant
// 0x6384BA69: hash key[:i] = {0,…,i−1} with seed 256−i for i = 0…255,
// hash the 4 096 concatenated outputs with seed 0, and read bytes 0–3 of
// that little-endian. The seeded hashes come from the reference; the
// final seed-0 hash, and every seed-0 prefix, come from fingerprint
// itself, which pins both to the canonical algorithm and byte order.
func TestFingerprintMurmur3Verification(t *testing.T) {
	var key [256]byte
	hashes := make([]byte, 0, 16*256)
	for i := 0; i < 256; i++ {
		key[i] = byte(i)
		h := murmur3Ref(key[:i], uint32(256-i))
		hashes = append(hashes, h[:]...)
		if got, want := fingerprint(string(key[:i])), murmur3Ref(key[:i], 0); got != want {
			t.Fatalf("fingerprint of a %d-byte prefix = %x, reference %x", i, got, want)
		}
	}
	final := fingerprint(string(hashes))
	if want := murmur3Ref(hashes, 0); final != want {
		t.Fatalf("fingerprint of the concatenated hashes = %x, reference %x", final, want)
	}
	if got := binary.LittleEndian.Uint32(final[:4]); got != 0x6384BA69 {
		t.Fatalf("verification value %#08x, want MurmurHash3_x64_128's 0x6384BA69", got)
	}
}

// FuzzFingerprint128 pins fingerprint against the plain reference
// murmur3Ref on arbitrary keys. Every hashed store (HashStore,
// ShardedStore, SpillStore, disk runs included) shares this function, so
// a divergence at any length would silently change their key spaces.
func FuzzFingerprint128(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(""))
	f.Add([]byte("a"))
	f.Add([]byte("proc0:val1|proc1:val2|bag{m1,m2}"))
	f.Add([]byte(strings.Repeat("x", 4096)))
	f.Add([]byte{0x00, 0xff, 0x80, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := fingerprint(string(data)), murmur3Ref(data, 0); got != want {
			t.Fatalf("fingerprint(%x) = %x, reference MurmurHash3 %x", data, got, want)
		}
	})
}

// TestFingerprintAllocs is the allocs/op guard for the hash itself: a
// state-sized key must hash without touching the heap.
func TestFingerprintAllocs(t *testing.T) {
	key := stateShapedKey(150)
	if allocs := testing.AllocsPerRun(200, func() { fpSink = fingerprint(key) }); allocs != 0 {
		t.Errorf("fingerprint allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFingerprintDispersion hashes about 2^18 state-shaped keys — every
// length from 0 to 300, so every tail length and block edge occurs, with
// neighbours sharing all but one byte or one bit — and checks that no two
// collide and that fp[15], the byte ShardedStore and SpillStore pick their
// stripe by, is near-uniform. The empty key
// is among them: under seed 0 it hashes to all zeros, which no store
// treats specially (and no State.Key is empty).
func TestFingerprintDispersion(t *testing.T) {
	base := stateShapedKey(300)
	keys := make(map[string]struct{})
	for n := 0; n <= len(base); n++ {
		keys[base[:n]] = struct{}{}
		for j := 0; j < 512 && n > 0; j++ {
			pos := n - 1 - (j/8)%n // walk back from the end
			b := []byte(base[:n])
			b[pos] ^= 1 << (j % 8)
			keys[string(b)] = struct{}{}
			b[pos] ^= 1 << (j % 8)
			b[pos] ^= byte(j%255 + 1)
			keys[string(b)] = struct{}{}
		}
	}
	if len(keys) < 1<<17 {
		t.Fatalf("only %d distinct keys generated", len(keys))
	}
	if fp := fingerprint(""); fp != ([16]byte{}) {
		t.Errorf("fingerprint(\"\") = %x, want all zeros under seed 0", fp)
	}
	seen := make(map[[16]byte]string, len(keys))
	var buckets [256]int
	for k := range keys {
		fp := fingerprint(k)
		if other, dup := seen[fp]; dup {
			t.Fatalf("fingerprint collision: %q and %q both hash to %x", k, other, fp)
		}
		seen[fp] = k
		buckets[fp[15]]++
	}
	// Chi-square over 255 degrees of freedom has mean 255 and standard
	// deviation about 22.6; 400 is more than six deviations out.
	expect := float64(len(keys)) / 256
	var chi2 float64
	for _, c := range buckets {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	if chi2 > 400 {
		t.Errorf("fp[15] over %d keys: chi-square %.1f over 256 buckets, want < 400", len(keys), chi2)
	}
}

// stateShapedKey returns an n-byte key shaped like a State.Key: long
// repeated structure with a few varying fields.
func stateShapedKey(n int) string {
	var sb strings.Builder
	for i := 0; sb.Len() < n; i++ {
		fmt.Fprintf(&sb, "p%d:{bal:%d,val:%d}#bag{PREPARE:%d>%d,ACK:%d>0}|", i%3, i%2, i%5, i%3, (i+1)%3, i%2)
	}
	return sb.String()[:n]
}

var fpSink [16]byte

// TestFingerprintCollisionBehavior documents what a 128-bit fingerprint
// collision would do to each store mode. The fingerprint stores
// (HashStore, and SpillStore's tiers) retain only the fingerprint, so two
// distinct keys with equal fingerprints would be conflated — simulated
// here by pre-seeding the stores with the victim's fingerprint under a
// phantom "other" key. The exact stores (ExactStore, ShardedStore in
// exact mode — the ExactStates option) key on the full canonical string:
// no fingerprint ever decides membership on their path, so they are
// immune by construction, not merely by probability.
func TestFingerprintCollisionBehavior(t *testing.T) {
	const victim = "proc0:val1|proc1:val2|bag{m1}"

	// HashStore: membership is decided by the fingerprint alone.
	hs := NewHashStore()
	hs.m = map[[16]byte]struct{}{fingerprint(victim): {}}
	if !hs.Seen(victim) {
		t.Error("HashStore: a colliding fingerprint must conflate the victim (dup expected)")
	}

	// SpillStore: both tiers hold bare fingerprints. Seed the hot tier
	// with the colliding fingerprint, spill it to disk, and the victim
	// must still be conflated by the disk probe.
	sp, err := NewSpillStore(SpillConfig{BudgetBytes: 1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if sp.seenFP(fingerprint(victim)) {
		t.Fatal("phantom colliding insert reported dup")
	}
	if runs, _, _ := sp.SpillStats(); runs == 0 {
		t.Fatal("one-entry budget did not spill — the disk tier is not exercised")
	}
	if !sp.Seen(victim) {
		t.Error("SpillStore: a colliding fingerprint on disk must conflate the victim (dup expected)")
	}

	// ExactStore: the full key is the map key; a would-be collision is
	// invisible because no fingerprint participates in membership.
	es := NewExactStore()
	es.Seen("some-other-key-entirely")
	if es.Seen(victim) {
		t.Error("ExactStore: distinct key reported dup")
	}
	if _, ok := es.m[victim]; !ok {
		t.Error("ExactStore does not retain the full canonical key")
	}

	// ShardedStore in exact mode: the fingerprint only selects the
	// stripe; membership is still decided on the full key.
	se := NewShardedExactStore()
	se.Seen("some-other-key-entirely")
	if se.Seen(victim) {
		t.Error("exact ShardedStore: distinct key reported dup")
	}
}

// TestStoreSeenAllocs is the allocs/op guard for the visited-set hot path:
// probing an already-present key must not allocate in any store — the
// stdlib hasher HashStore used to build per call escaped to the heap on
// every probe.
func TestStoreSeenAllocs(t *testing.T) {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("proc%d:val%d|bag{m%d}", i%4, i, i%7)
	}
	stores := []struct {
		name  string
		store Store
	}{
		{"HashStore", NewHashStore()},
		{"ExactStore", NewExactStore()},
		{"ShardedHash", NewShardedHashStore()},
		{"ShardedExact", NewShardedExactStore()},
	}
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			for _, k := range keys {
				st.store.Seen(k)
			}
			var i int
			allocs := testing.AllocsPerRun(200, func() {
				st.store.Seen(keys[i%len(keys)])
				i++
			})
			if allocs != 0 {
				t.Errorf("Seen on present keys allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// BenchmarkFingerprint guards the allocation-free claim and the raw
// throughput of the shared fingerprint helper at state-key sizes around
// the ~150-byte keys the bench models produce.
func BenchmarkFingerprint(b *testing.B) {
	for _, n := range []int{32, 64, 160, 512} {
		key := stateShapedKey(n)
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fpSink = fingerprint(key)
			}
		})
	}
}

// BenchmarkStoreSeenHot measures the steady-state (key already present)
// visited-set probe across the stores; allocs/op must be zero.
func BenchmarkStoreSeenHot(b *testing.B) {
	keys := make([]string, 1<<12)
	for i := range keys {
		keys[i] = fmt.Sprintf("proc%d:val%d|bag{m%d}", i%4, i, i%97)
	}
	stores := []struct {
		name string
		mk   func() Store
	}{
		{"hash", func() Store { return NewHashStore() }},
		{"sharded-hash", func() Store { return NewShardedHashStore() }},
	}
	for _, st := range stores {
		b.Run(st.name, func(b *testing.B) {
			store := st.mk()
			for _, k := range keys {
				store.Seen(k)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				store.Seen(keys[i%len(keys)])
			}
		})
	}
}

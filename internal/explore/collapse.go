package explore

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"mpbasset/internal/core"
)

// Collapser is Spin-style COLLAPSE state compression as a canonicalizer: a
// shared intern table that dedupes the components of a global state — each
// process's local-state key and the message-bag key — across all states of
// a run, so the string a state contributes to the visited store, the
// fingerprint hash and the search stack shrinks from the full canonical
// key to a handful of decimal component IDs ("3.0.7#12" instead of the
// concatenated local and bag encodings). Protocol states share almost all
// of their components with their neighbors (one process moves, the bag
// gains or loses one message), so the table stays small while the per-state
// key shrinks by the average component length.
//
// The mapping is injective per Collapser instance: component IDs are
// assigned per intern table (one table per process slot, one for bags), so
// two states map to the same compressed key iff their full canonical keys
// are equal. A search over Options.Canon = c.Canon therefore explores
// exactly the states, events and verdicts of the uncompressed search — the
// determinism guarantee for verdicts and every counter is untouched. What
// DOES change is the key strings themselves: IDs are assigned in
// first-seen order, so compressed keys are run-internal names (and, under
// ParallelBFS, not reproducible across worker counts). Trace
// consumers that need real canonical keys decompress them with Expand —
// the mpbasset facade does this on every returned trace, restoring
// bit-identical traces across worker counts.
//
// Canon is safe for concurrent use (ParallelBFS workers canonicalize
// concurrently); lookups of already-interned components take
// a read lock only. Use one Collapser per run: sharing one across runs is
// sound (the mapping stays injective) but lets the table grow without
// bound.
type Collapser struct {
	mu     sync.RWMutex
	locals []internTable // one table per process slot, grown on demand
	bags   internTable
}

// internTable assigns dense uint32 IDs to component keys in first-seen
// order and remembers the reverse mapping for Expand.
type internTable struct {
	ids  map[string]uint32
	keys []string
}

func (t *internTable) lookup(key string) (uint32, bool) {
	id, ok := t.ids[key]
	return id, ok
}

func (t *internTable) intern(key string) uint32 {
	if id, ok := t.ids[key]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]uint32)
	}
	id := uint32(len(t.keys))
	t.ids[key] = id
	t.keys = append(t.keys, key)
	return id
}

// NewCollapser returns an empty intern table. The number of process slots
// is learned from the first state canonicalized.
func NewCollapser() *Collapser { return &Collapser{} }

// Canon maps s to its compressed canonical key: the per-slot component IDs
// of the local states joined by '.', then '#', then the bag component ID —
// printable, short, and injective with respect to s.Key(). Install it as
// Options.Canon.
func (c *Collapser) Canon(s *core.State) string {
	localKeys, bagKey := s.ComponentKeys()
	ids := make([]uint32, len(localKeys)+1)
	if !c.lookupAll(localKeys, bagKey, ids) {
		c.internAll(localKeys, bagKey, ids)
	}
	var sb strings.Builder
	sb.Grow(4 * len(ids))
	for i, id := range ids[:len(ids)-1] {
		if i > 0 {
			sb.WriteByte('.')
		}
		sb.WriteString(strconv.FormatUint(uint64(id), 10))
	}
	sb.WriteByte('#')
	sb.WriteString(strconv.FormatUint(uint64(ids[len(ids)-1]), 10))
	return sb.String()
}

// lookupAll resolves every component under the read lock; it reports false
// as soon as one component is missing (the slow path interns under the
// write lock).
func (c *Collapser) lookupAll(localKeys []string, bagKey string, ids []uint32) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.locals) < len(localKeys) {
		return false
	}
	for i, k := range localKeys {
		id, ok := c.locals[i].lookup(k)
		if !ok {
			return false
		}
		ids[i] = id
	}
	id, ok := c.bags.lookup(bagKey)
	if !ok {
		return false
	}
	ids[len(ids)-1] = id
	return true
}

func (c *Collapser) internAll(localKeys []string, bagKey string, ids []uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.locals) < len(localKeys) {
		c.locals = append(c.locals, internTable{})
	}
	for i, k := range localKeys {
		ids[i] = c.locals[i].intern(k)
	}
	ids[len(ids)-1] = c.bags.intern(bagKey)
}

// Expand decompresses a key produced by Canon back into the state's full
// canonical encoding (core.(*State).Key()). It fails on keys this
// Collapser did not produce — a compressed key is a run-internal name, not
// a portable encoding.
func (c *Collapser) Expand(key string) (string, error) {
	localPart, bagPart, ok := strings.Cut(key, "#")
	if !ok {
		return "", fmt.Errorf("collapse: %q is not a compressed state key (no '#')", key)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	var sb strings.Builder
	for i, part := range strings.Split(localPart, ".") {
		id, err := strconv.ParseUint(part, 10, 32)
		if err != nil {
			return "", fmt.Errorf("collapse: bad component ID %q in %q", part, key)
		}
		if i >= len(c.locals) || id >= uint64(len(c.locals[i].keys)) {
			return "", fmt.Errorf("collapse: unknown local component %d.%d in %q", i, id, key)
		}
		if i > 0 {
			sb.WriteByte('|')
		}
		sb.WriteString(c.locals[i].keys[id])
	}
	sb.WriteByte('#')
	id, err := strconv.ParseUint(bagPart, 10, 32)
	if err != nil {
		return "", fmt.Errorf("collapse: bad bag component ID %q in %q", bagPart, key)
	}
	if id >= uint64(len(c.bags.keys)) {
		return "", fmt.Errorf("collapse: unknown bag component %d in %q", id, key)
	}
	sb.WriteString(c.bags.keys[id])
	return sb.String(), nil
}

// ExpandTrace decompresses every StateKey of a recorded trace in place,
// turning the run-internal compressed keys into the full canonical keys
// every trace consumer (Replay with a nil canon, DOT rendering, the
// differential suites) expects.
func (c *Collapser) ExpandTrace(trace []Step) error {
	for i := range trace {
		full, err := c.Expand(trace[i].StateKey)
		if err != nil {
			return err
		}
		trace[i].StateKey = full
	}
	return nil
}

// Components returns the number of distinct components interned so far
// (local states across all slots, plus bags) — the size of the shared
// table a compressed run pays for its shortened keys.
func (c *Collapser) Components() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := len(c.bags.keys)
	for i := range c.locals {
		n += len(c.locals[i].keys)
	}
	return n
}

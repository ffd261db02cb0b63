package core

import (
	"slices"
	"strconv"
	"strings"
)

// Bag is a multiset of in-flight messages: the union of all channel
// contents. Channels are unordered per the MP model, so a counted set of
// distinct messages represents them faithfully.
//
// The entries are kept sorted by canonical message key. An entry is a
// pointer to an immutable message record — the message with its key cached,
// allocated once when the message is first added and shared by every bag
// that ever holds it — plus a multiplicity, so copying a bag copies 16
// bytes per distinct message. Add/Remove/Count are a binary search, the
// canonical encoding is a linear walk, and message matching is a scan that
// allocates nothing.
//
// The zero value is an empty bag.
type Bag struct {
	entries []bagEntry // ascending by msg.key, keys distinct
	size    int
}

type bagEntry struct {
	msg *Message // key cached; never written after the entry is built
	n   int
}

// NewBag returns an empty bag.
func NewBag() *Bag { return &Bag{} }

// findEntry returns the position of key k in entries, or the position at
// which it would be inserted, and whether it is present.
func findEntry(entries []bagEntry, k string) (int, bool) {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if entries[mid].msg.key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(entries) && entries[lo].msg.key == k
}

func (b *Bag) find(k string) (int, bool) { return findEntry(b.entries, k) }

// Add inserts one copy of m.
func (b *Bag) Add(m Message) {
	m = m.withKey()
	i, ok := b.find(m.key)
	if ok {
		b.entries[i].n++
	} else {
		b.entries = append(b.entries, bagEntry{})
		copy(b.entries[i+1:], b.entries[i:])
		rec := new(Message)
		*rec = m
		b.entries[i] = bagEntry{msg: rec, n: 1}
	}
	b.size++
}

// Remove deletes one copy of m. It reports whether a copy was present.
func (b *Bag) Remove(m Message) bool {
	i, ok := b.find(m.Key())
	if !ok {
		return false
	}
	if b.entries[i].n > 1 {
		b.entries[i].n--
	} else {
		last := len(b.entries) - 1
		copy(b.entries[i:], b.entries[i+1:])
		b.entries[last] = bagEntry{} // drop the record reference
		b.entries = b.entries[:last]
	}
	b.size--
	return true
}

// Count returns the number of copies of m in the bag.
func (b *Bag) Count(m Message) int {
	if i, ok := b.find(m.Key()); ok {
		return b.entries[i].n
	}
	return 0
}

// Len returns the total number of messages (counting multiplicity).
func (b *Bag) Len() int { return b.size }

// Distinct returns the number of distinct messages.
func (b *Bag) Distinct() int { return len(b.entries) }

// Clone returns an independent copy of the bag; the two share the immutable
// message records. Execute does not clone: see appendSuccessor.
func (b *Bag) Clone() *Bag {
	return &Bag{entries: append([]bagEntry(nil), b.entries...), size: b.size}
}

// Each calls f for every distinct message with its multiplicity, in
// ascending order of message key.
func (b *Bag) Each(f func(m Message, n int)) {
	for i := range b.entries {
		f(*b.entries[i].msg, b.entries[i].n)
	}
}

// matches reports whether m is addressed to proc with the given type from a
// sender allowed by peers (nil peers = any sender).
func (m *Message) matches(proc ProcessID, typ string, peers []ProcessID) bool {
	if m.To != proc || m.Type != typ {
		return false
	}
	if peers == nil {
		return true
	}
	for _, q := range peers {
		if q == m.From {
			return true
		}
	}
	return false
}

// appendMatchingByKey appends to dst, in key order, the distinct pending
// messages addressed to proc with the given type whose sender is allowed by
// peers.
func (b *Bag) appendMatchingByKey(dst []Message, proc ProcessID, typ string, peers []ProcessID) []Message {
	for i := range b.entries {
		if m := b.entries[i].msg; m.matches(proc, typ, peers) {
			dst = append(dst, *m)
		}
	}
	return dst
}

// AppendMatching appends to dst the distinct pending messages addressed to
// proc with the given type whose sender is allowed by peers (nil peers =
// any sender), grouped by sender in ascending numeric order and ordered by
// message key within a sender. It allocates only to grow dst, so a caller
// that reuses dst matches allocation-free.
//
// Multiplicity is irrelevant here: consuming any one of several identical
// copies yields the same successor state, so one representative suffices.
func (b *Bag) AppendMatching(dst []Message, proc ProcessID, typ string, peers []ProcessID) []Message {
	base := len(dst)
	dst = b.appendMatchingByKey(dst, proc, typ, peers)
	// Key order already groups by sender, but compares sender IDs as
	// decimal strings ("10>…" < "2>…"). A stable insertion sort by
	// numeric sender fixes the group order and is a single pass whenever
	// the two orders agree (always, below ten processes).
	ms := dst[base:]
	for i := 1; i < len(ms); i++ {
		if ms[i-1].From <= ms[i].From {
			continue
		}
		m := ms[i]
		j := i
		for ; j > 0 && ms[j-1].From > m.From; j-- {
			ms[j] = ms[j-1]
		}
		ms[j] = m
	}
	return dst
}

// HasMatchingSenders reports whether at least q distinct allowed senders
// have a pending message addressed to proc with the given type. It stops
// at the q-th sender and never allocates.
func (b *Bag) HasMatchingSenders(proc ProcessID, typ string, peers []ProcessID, q int) bool {
	if q <= 0 {
		return true
	}
	// Entries of one sender are contiguous in key order (they share the
	// "<from>>" key prefix), so distinct senders are sender changes.
	last := ProcessID(-1)
	for i := range b.entries {
		m := b.entries[i].msg
		if m.From == last || !m.matches(proc, typ, peers) {
			continue
		}
		last = m.From
		if q--; q == 0 {
			return true
		}
	}
	return false
}

// AppendMatchingSenders appends to dst the allowed senders (nil peers = any
// sender) that have a pending message addressed to proc with the given
// type: each such sender exactly once, in the bag's key order. It is one
// pass over the bag and allocates only to grow dst. Package por derives
// from it both the senders a disabled transition is still missing and the
// senders that can no longer grow an enabled UniquePerSender transition.
func (b *Bag) AppendMatchingSenders(dst []ProcessID, proc ProcessID, typ string, peers []ProcessID) []ProcessID {
	last := ProcessID(-1) // one sender's entries are contiguous, as above
	for i := range b.entries {
		m := b.entries[i].msg
		if m.From == last || !m.matches(proc, typ, peers) {
			continue
		}
		last = m.From
		dst = append(dst, last)
	}
	return dst
}

// locate appends to dst, in ascending order, the entry position of every
// message of msgs (k times for a message that occurs k times) and returns
// nil; or it returns the first message of msgs, in the order given, that
// the bag has no copy left of. msgs need neither be sorted nor carry
// cached keys.
func (b *Bag) locate(dst []int, msgs []Message) ([]int, *Message) {
	for i := range msgs {
		pos, ok := b.find(msgs[i].Key())
		if !ok {
			return dst, &msgs[i]
		}
		j, taken := len(dst), 0
		for ; j > 0 && dst[j-1] >= pos; j-- {
			if dst[j-1] == pos {
				taken++
			}
		}
		if taken == b.entries[pos].n {
			return dst, &msgs[i]
		}
		dst = slices.Insert(dst, j, pos)
	}
	return dst, nil
}

// successorLen returns a bound on the number of entries of the bag that
// results from removing one copy at each position of drop (ascending, as
// locate returns them) and then adding sends: each send adds at most one
// entry and each position dropped to zero frees one. The bound is exact
// unless a send repeats another or tops up an entry that stays.
func (b *Bag) successorLen(drop []int, sends []Message) int {
	zeroed := 0
	for d := 0; d < len(drop); {
		pos, k := drop[d], 0
		for ; d < len(drop) && drop[d] == pos; d++ {
			k++
		}
		if k == b.entries[pos].n {
			zeroed++
		}
	}
	return len(b.entries) - zeroed + len(sends)
}

// appendSuccessor appends to out the entries of the bag that results from
// removing one copy at each position of drop (ascending, as locate returns
// them) and then adding sends, which must be sorted by key with the keys
// cached, and appends to fresh the position in out of every entry whose
// record is a send: a message b never held gets &sends[i] as its record.
// It is one merge: unchanged entries are copied in runs and share their
// records with b. The result is only as durable as sends, which StepBuffer
// reuses; StepBuffer.Keep copies the fresh records out. It appends at most
// successorLen(drop, sends) entries.
func (b *Bag) appendSuccessor(out []bagEntry, fresh []int, drop []int, sends []Message) ([]bagEntry, []int) {
	old := b.entries
	i, d, s := 0, 0, 0
	for d < len(drop) || s < len(sends) {
		// The next entry that changes is the lower-keyed of the next
		// dropped one and the next send's (present in old or not).
		pos, found := 0, true
		if d < len(drop) && (s == len(sends) || old[drop[d]].msg.key <= sends[s].key) {
			pos = drop[d]
		} else {
			pos, found = findEntry(old[i:], sends[s].key)
			pos += i
		}
		out = append(out, old[i:pos]...)
		i = pos
		var e bagEntry
		if found {
			e = old[pos]
			i++
			for ; d < len(drop) && drop[d] == pos; d++ {
				e.n--
			}
		} else {
			e.msg = &sends[s]
			fresh = append(fresh, len(out))
		}
		for ; s < len(sends) && sends[s].key == e.msg.key; s++ {
			e.n++
		}
		if e.n > 0 {
			out = append(out, e)
		}
	}
	return append(out, old[i:]...), fresh
}

// keyLen returns len(b.Key()) from the cached message keys.
func (b *Bag) keyLen() int {
	l := 0
	for i := range b.entries {
		e := &b.entries[i]
		l += 1 + len(e.msg.key)
		if e.n > 1 {
			l += 1 + len(strconv.Itoa(e.n))
		}
	}
	return l
}

// appendKey writes the canonical encoding of the bag: message keys in
// ascending order with multiplicities.
func (b *Bag) appendKey(sb *strings.Builder) {
	for i := range b.entries {
		e := &b.entries[i]
		sb.WriteByte(';')
		sb.WriteString(e.msg.key)
		if e.n > 1 {
			sb.WriteByte('*')
			sb.WriteString(strconv.Itoa(e.n))
		}
	}
}

// Key returns the canonical encoding of the bag contents.
func (b *Bag) Key() string {
	var sb strings.Builder
	sb.Grow(b.keyLen())
	b.appendKey(&sb)
	return sb.String()
}

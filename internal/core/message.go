package core

import (
	"slices"
	"strconv"
)

// ProcessID identifies a process of the system. Processes are numbered
// 0..N-1 within a Protocol.
type ProcessID int

// String returns the decimal representation of the ID.
func (p ProcessID) String() string { return strconv.Itoa(int(p)) }

// Payload is the immutable content of a message beyond its addressing
// envelope. Implementations must be treated as values: once a message is
// sent, its payload must never be mutated.
type Payload interface {
	// Key returns a canonical, collision-free encoding of the payload.
	// Two payloads are considered equal iff their keys are equal.
	Key() string
}

// NoPayload is the payload of messages that carry no content (pure
// signals).
type NoPayload struct{}

// Key implements Payload.
func (NoPayload) Key() string { return "" }

// Message is a message in transit from one process to another. The paper's
// channel c_{i,j} is recovered from the From/To fields, so a single global
// bag of messages represents all channels.
//
// A Message is an immutable value once sent: a bag holds it as a shared
// record with its canonical key cached inside, and every message handed out
// by a Bag, an Event or a Ctx is a copy of that record, cache included. To
// change a field, build a new literal from the fields you keep
// (Message{From: q, To: m.To, ...}) — assigning to a field of a copy would
// leave the copy answering Key() with the original's key.
type Message struct {
	From    ProcessID
	To      ProcessID
	Type    string
	Payload Payload

	key string // cached canonical encoding; "" until withKey (no key is empty)
}

// Key returns the canonical encoding of the message. Messages are equal iff
// their keys are equal.
func (m Message) Key() string {
	if m.key != "" {
		return m.key
	}
	// Assembled in a stack buffer, so the key is one allocation of exactly
	// its length (a key longer than the buffer spills to the heap first).
	var buf [96]byte
	k := strconv.AppendInt(buf[:0], int64(m.From), 10)
	k = append(k, '>')
	k = strconv.AppendInt(k, int64(m.To), 10)
	k = append(k, ':')
	k = append(k, m.Type...)
	if m.Payload != nil {
		if pk := m.Payload.Key(); pk != "" {
			k = append(k, '{')
			k = append(k, pk...)
			k = append(k, '}')
		}
	}
	return string(k)
}

// withKey returns m with its canonical key cached.
func (m Message) withKey() Message {
	m.key = m.Key()
	return m
}

// String returns a human-readable rendering of the message.
func (m Message) String() string { return m.Key() }

// SortMessages orders msgs by canonical key, in place, caching each
// message's key on the way. Transitions receive their consumed message sets
// in this order; per the MP semantics the order carries no meaning, but a
// deterministic order keeps searches reproducible.
func SortMessages(msgs []Message) {
	for i := range msgs {
		msgs[i] = msgs[i].withKey()
	}
	sortByKey(msgs)
}

// sortByKey orders messages whose keys are cached. It is an insertion
// sort: message sets are quorum-sized, and the enumeration's candidate sets
// arrive ordered by numeric sender, which is key order already unless
// sender IDs differ in digit count — one pass in the common case.
func sortByKey(msgs []Message) {
	for i := 1; i < len(msgs); i++ {
		for j := i; j > 0 && msgs[j].key < msgs[j-1].key; j-- {
			msgs[j], msgs[j-1] = msgs[j-1], msgs[j]
		}
	}
}

// Senders returns the set of distinct senders of msgs, ascending.
func Senders(msgs []Message) []ProcessID {
	if len(msgs) == 0 {
		return nil
	}
	out := make([]ProcessID, 0, len(msgs))
	for i := range msgs {
		if j, ok := slices.BinarySearch(out, msgs[i].From); !ok {
			out = slices.Insert(out, j, msgs[i].From)
		}
	}
	return out
}

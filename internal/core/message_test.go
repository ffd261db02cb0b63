package core

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestMessageKeyDistinguishesFields(t *testing.T) {
	base := msg(1, 2, "T", 5)
	variants := []Message{
		msg(0, 2, "T", 5),
		msg(1, 0, "T", 5),
		msg(1, 2, "U", 5),
		msg(1, 2, "T", 6),
	}
	for _, v := range variants {
		if v.Key() == base.Key() {
			t.Errorf("distinct messages share key: %v vs %v", base, v)
		}
	}
	if base.Key() != msg(1, 2, "T", 5).Key() {
		t.Error("equal messages have different keys")
	}
}

func TestMessageKeyInjectiveOnSmallDomain(t *testing.T) {
	// Property: distinct (from,to,type,payload) tuples yield distinct keys.
	seen := make(map[string]Message)
	for from := 0; from < 4; from++ {
		for to := 0; to < 4; to++ {
			for _, typ := range []string{"A", "B", "AB"} {
				for v := 0; v < 4; v++ {
					m := msg(ProcessID(from), ProcessID(to), typ, v)
					k := m.Key()
					if prev, ok := seen[k]; ok {
						t.Fatalf("key collision: %v and %v both map to %q", prev, m, k)
					}
					seen[k] = m
				}
			}
		}
	}
}

func TestNoPayloadKeyEmpty(t *testing.T) {
	if (NoPayload{}).Key() != "" {
		t.Fatal("NoPayload key should be empty")
	}
	m := Message{From: 1, To: 2, Type: "T", Payload: NoPayload{}}
	m2 := Message{From: 1, To: 2, Type: "T"}
	if m.Key() != m2.Key() {
		t.Fatalf("NoPayload and nil payload should encode the same: %q vs %q", m.Key(), m2.Key())
	}
}

// TestMessageKeyOfDerivedMessage covers the stale-key hazard: a message
// taken from a bag carries its cached key, so a changed copy must be built
// as a fresh literal (what symmetry.Canon does to remap process IDs) for
// Key to follow the change.
func TestMessageKeyOfDerivedMessage(t *testing.T) {
	b := NewBag()
	b.Add(msg(1, 2, "T", 5))
	var pending Message
	b.Each(func(m Message, _ int) { pending = m })
	if pending.key == "" || pending.Key() != "1>2:T{5}" {
		t.Fatalf("message from the bag has key %q (cached %q), want 1>2:T{5} cached", pending.Key(), pending.key)
	}
	derived := Message{From: 3, To: pending.To, Type: pending.Type, Payload: pending.Payload}
	if got := derived.Key(); got != "3>2:T{5}" {
		t.Fatalf("derived message has key %q, want 3>2:T{5}", got)
	}
	b.Add(derived)
	if b.Count(derived) != 1 || b.Count(pending) != 1 || b.Key() != ";1>2:T{5};3>2:T{5}" {
		t.Fatalf("bag after adding the derived message: %s", b.Key())
	}
}

func TestSortMessagesIsCanonical(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		var a, b []Message
		for i, v := range vals {
			m := msg(ProcessID(int(v)%3), 0, "T", i%5)
			a = append(a, m)
			b = append([]Message{m}, b...) // reversed insertion
		}
		SortMessages(a)
		SortMessages(b)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Key() != b[i].Key() {
				return false
			}
		}
		return sort.SliceIsSorted(a, func(i, j int) bool { return a[i].Key() < a[j].Key() })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPeerSuffix(t *testing.T) {
	if got := PeerSuffix([]ProcessID{1, 2}); got != "__1_2" {
		t.Fatalf("PeerSuffix = %q, want __1_2", got)
	}
	if got := PeerSuffix([]ProcessID{7}); got != "__7" {
		t.Fatalf("PeerSuffix = %q, want __7", got)
	}
}

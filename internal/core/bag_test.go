package core

import (
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
)

type intPayload struct{ V int }

func (p intPayload) Key() string { return strconv.Itoa(p.V) }

func msg(from, to ProcessID, typ string, v int) Message {
	return Message{From: from, To: to, Type: typ, Payload: intPayload{V: v}}
}

func TestBagAddRemove(t *testing.T) {
	b := NewBag()
	m1 := msg(0, 1, "A", 7)
	if b.Len() != 0 || b.Distinct() != 0 {
		t.Fatalf("new bag not empty: len=%d distinct=%d", b.Len(), b.Distinct())
	}
	b.Add(m1)
	b.Add(m1)
	if b.Len() != 2 || b.Distinct() != 1 || b.Count(m1) != 2 {
		t.Fatalf("after two adds: len=%d distinct=%d count=%d", b.Len(), b.Distinct(), b.Count(m1))
	}
	if !b.Remove(m1) {
		t.Fatal("remove of present message reported absent")
	}
	if b.Len() != 1 || b.Count(m1) != 1 {
		t.Fatalf("after remove: len=%d count=%d", b.Len(), b.Count(m1))
	}
	if !b.Remove(m1) || b.Len() != 0 || b.Distinct() != 0 {
		t.Fatal("bag not empty after removing both copies")
	}
	if b.Remove(m1) {
		t.Fatal("remove of absent message reported present")
	}
}

func TestBagCloneIndependence(t *testing.T) {
	b := NewBag()
	m1, m2 := msg(0, 1, "A", 1), msg(1, 0, "B", 2)
	b.Add(m1)
	c := b.Clone()
	c.Add(m2)
	c.Remove(m1)
	if b.Count(m1) != 1 || b.Count(m2) != 0 {
		t.Fatalf("mutating clone affected original: %s", b.Key())
	}
	if c.Count(m1) != 0 || c.Count(m2) != 1 {
		t.Fatalf("clone state wrong: %s", c.Key())
	}
}

func TestBagKeyDeterministicUnderPermutation(t *testing.T) {
	// Property: inserting the same multiset in any order yields the same
	// canonical key.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		msgs := make([]Message, 0, int(n%12)+2)
		for i := 0; i < cap(msgs); i++ {
			msgs = append(msgs, msg(ProcessID(rng.Intn(3)), ProcessID(rng.Intn(3)),
				string(rune('A'+rng.Intn(3))), rng.Intn(4)))
		}
		b1 := NewBag()
		for _, m := range msgs {
			b1.Add(m)
		}
		b2 := NewBag()
		for _, i := range rng.Perm(len(msgs)) {
			b2.Add(msgs[i])
		}
		return b1.Key() == b2.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBagAppendMatching(t *testing.T) {
	b := NewBag()
	b.Add(msg(0, 5, "X", 1))
	b.Add(msg(1, 5, "X", 3)) // second distinct candidate from sender 1
	b.Add(msg(1, 5, "X", 2))
	b.Add(msg(2, 5, "X", 4))
	b.Add(msg(2, 5, "X", 4)) // a second copy is not a second candidate
	b.Add(msg(1, 5, "Y", 9)) // wrong type
	b.Add(msg(1, 5, "XY", 9))
	b.Add(msg(1, 6, "X", 9)) // wrong recipient

	keys := func(ms []Message) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Key())
		}
		return out
	}
	got := keys(b.AppendMatching(nil, 5, "X", nil))
	if want := []string{"0>5:X{1}", "1>5:X{2}", "1>5:X{3}", "2>5:X{4}"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("matching = %v, want %v", got, want)
	}
	// Peer restriction, appended behind what the caller already holds.
	got = keys(b.AppendMatching([]Message{msg(9, 9, "KEEP", 0)}, 5, "X", []ProcessID{2, 0}))
	if want := []string{"9>9:KEEP{0}", "0>5:X{1}", "2>5:X{4}"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("peer-restricted matching = %v, want %v", got, want)
	}
	// Each sender once, however many messages it has pending, behind what
	// the caller already holds; no sender is an empty result, not nil-vs-set.
	if got := b.AppendMatchingSenders([]ProcessID{9}, 5, "X", nil); !reflect.DeepEqual(got, []ProcessID{9, 0, 1, 2}) {
		t.Fatalf("matching senders = %v, want [9 0 1 2]", got)
	}
	if got := b.AppendMatchingSenders(nil, 5, "X", []ProcessID{2, 1}); !reflect.DeepEqual(got, []ProcessID{1, 2}) {
		t.Fatalf("peer-restricted matching senders = %v, want [1 2]", got)
	}
	if len(b.AppendMatchingSenders(nil, 7, "X", nil)) != 0 || len(b.AppendMatchingSenders(nil, 5, "X", []ProcessID{3})) != 0 {
		t.Fatal("AppendMatchingSenders found a sender where none matches")
	}
	if !b.HasMatchingSenders(5, "X", nil, 3) || b.HasMatchingSenders(5, "X", nil, 4) ||
		b.HasMatchingSenders(5, "X", []ProcessID{1}, 2) || !b.HasMatchingSenders(7, "X", nil, 0) {
		t.Fatal("HasMatchingSenders wrong")
	}
}

// TestBagSenderOrderIsNumeric pins the one place where the bag's key order
// and the matching order differ: keys compare sender IDs as decimal
// strings, matching groups them numerically.
func TestBagSenderOrderIsNumeric(t *testing.T) {
	b := NewBag()
	for _, from := range []ProcessID{10, 2, 100, 1, 11} {
		b.Add(msg(from, 0, "X", int(from)))
		b.Add(msg(from, 0, "X", 0))
	}
	var eachOrder, matchOrder []ProcessID
	b.Each(func(m Message, _ int) { eachOrder = append(eachOrder, m.From) })
	for _, m := range b.AppendMatching(nil, 0, "X", nil) {
		matchOrder = append(matchOrder, m.From)
	}
	if want := []ProcessID{100, 100, 10, 10, 11, 11, 1, 1, 2, 2}; !reflect.DeepEqual(eachOrder, want) {
		t.Fatalf("Each order = %v, want key order %v", eachOrder, want)
	}
	if want := []ProcessID{1, 1, 2, 2, 10, 10, 11, 11, 100, 100}; !reflect.DeepEqual(matchOrder, want) {
		t.Fatalf("matching order = %v, want numeric %v", matchOrder, want)
	}
}

func TestBagMultiplicityInKey(t *testing.T) {
	b1, b2 := NewBag(), NewBag()
	m := msg(0, 1, "A", 1)
	b1.Add(m)
	b2.Add(m)
	b2.Add(m)
	if b1.Key() == b2.Key() {
		t.Fatal("multiplicity not reflected in canonical key")
	}
}

func TestSenders(t *testing.T) {
	msgs := []Message{msg(2, 0, "A", 1), msg(1, 0, "A", 2), msg(2, 0, "A", 3)}
	if got, want := Senders(msgs), []ProcessID{1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Senders = %v, want %v", got, want)
	}
	if got := Senders(nil); len(got) != 0 {
		t.Fatalf("Senders(nil) = %v", got)
	}
}

// TestSuccessorAgainstCloneRemoveAdd drives the one-pass successor merge
// and the construction it replaced — Clone, Remove each consumed message,
// Add each send — with the same random inputs. The small message domain
// forces multiplicities above one, sends that repeat each other, sends that
// top up a surviving entry and sends that put a fully consumed message
// back; senders on both sides of ten make key order and numeric order of
// the senders differ; one consumed set in four names a message the bag has
// no copy left of. The merge appends into buffers reused across inputs, as
// StepBuffer does, and must name as fresh exactly the entries whose record
// is a send.
func TestSuccessorAgainstCloneRemoveAdd(t *testing.T) {
	froms := []ProcessID{0, 1, 2, 9, 10, 11, 100}
	var out []bagEntry
	var fresh []int
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randMsg := func() Message {
			return msg(froms[rng.Intn(len(froms))], ProcessID(rng.Intn(2)), []string{"A", "AB"}[rng.Intn(2)], rng.Intn(2))
		}
		parent := NewBag()
		var pending []Message
		for i := rng.Intn(25); i > 0; i-- {
			m := randMsg()
			parent.Add(m)
			pending = append(pending, m)
		}
		parentKey := parent.Key()

		var consumed []Message
		for _, i := range rng.Perm(len(pending))[:rng.Intn(min(len(pending), 5)+1)] {
			consumed = append(consumed, pending[i])
		}
		if rng.Intn(4) == 0 {
			consumed = append(consumed, randMsg())
		}
		var sends []Message
		for i := rng.Intn(5); i > 0; i-- {
			sends = append(sends, randMsg())
		}
		if len(consumed) > 0 && rng.Intn(2) == 0 {
			m := consumed[rng.Intn(len(consumed))]
			sends = append(sends, msg(m.From, m.To, m.Type, m.Payload.(intPayload).V))
		}

		want, wantMissing := parent.Clone(), ""
		for _, m := range consumed {
			if !want.Remove(m) {
				wantMissing = m.Key()
				break
			}
		}
		drop, missing := parent.locate(nil, consumed)
		if wantMissing != "" || missing != nil {
			if missing == nil || missing.Key() != wantMissing {
				t.Fatalf("seed %d: locate reports %v missing, Remove %q", seed, missing, wantMissing)
			}
			continue
		}
		for _, m := range sends {
			want.Add(m)
		}
		SortMessages(sends)
		out, fresh = parent.appendSuccessor(out[:0], fresh[:0], drop, sends)
		if bound := parent.successorLen(drop, sends); len(out) > bound {
			t.Fatalf("seed %d: successor has %d entries, more than the bound %d", seed, len(out), bound)
		}
		got := Bag{entries: out, size: parent.Len() - len(drop) + len(sends)}
		if got.Key() != want.Key() || got.Len() != want.Len() || got.Distinct() != want.Distinct() {
			t.Fatalf("seed %d: successor of %s minus %v plus %v\n got %s (%d/%d)\nwant %s (%d/%d)", seed, parentKey, consumed, sends,
				got.Key(), got.Len(), got.Distinct(), want.Key(), want.Len(), want.Distinct())
		}
		var wantFresh []int
		for i, e := range got.entries {
			if _, held := parent.find(e.msg.key); held {
				continue
			}
			wantFresh = append(wantFresh, i)
			isSend := false
			for j := range sends {
				isSend = isSend || e.msg == &sends[j]
			}
			if !isSend {
				t.Fatalf("seed %d: new entry %s does not have a send as its record", seed, e.msg.key)
			}
		}
		if !slices.Equal(fresh, wantFresh) {
			t.Fatalf("seed %d: fresh entries %v, want %v", seed, fresh, wantFresh)
		}
		if parent.Key() != parentKey {
			t.Fatalf("seed %d: building the successor changed the parent", seed)
		}
	}
}

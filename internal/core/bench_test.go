package core

import (
	"strconv"
	"testing"
)

func benchBag(n int) *Bag {
	b := NewBag()
	for i := 0; i < n; i++ {
		b.Add(msg(ProcessID(i%4), ProcessID((i+1)%4), "T"+strconv.Itoa(i%3), i))
	}
	return b
}

func BenchmarkBagAddRemove(b *testing.B) {
	m := msg(0, 1, "T", 42)
	bag := benchBag(24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bag.Add(m)
		bag.Remove(m)
	}
}

func BenchmarkBagClone(b *testing.B) {
	bag := benchBag(24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bag.Clone()
	}
}

func BenchmarkBagKey(b *testing.B) {
	bag := benchBag(24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bag.Key()
	}
}

func BenchmarkStateKey(b *testing.B) {
	locals := []LocalState{
		&counterState{N: 1}, &counterState{N: 2}, &counterState{N: 3}, &counterState{N: 4},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewState(locals, benchBag(16))
		_ = s.Key()
	}
}

// BenchmarkEnabledQuorum measures the exact-quorum enumeration against
// sender counts — the cost §IV-A discusses (our combinations vs the
// original powerset).
func BenchmarkEnabledQuorum(b *testing.B) {
	for _, senders := range []int{3, 5, 7} {
		senders := senders
		b.Run("senders="+strconv.Itoa(senders), func(b *testing.B) {
			peers := make([]ProcessID, senders)
			for i := range peers {
				peers[i] = ProcessID(i)
			}
			p := &Protocol{
				Name: "bench",
				N:    senders + 1,
				Init: func() []LocalState {
					ls := make([]LocalState, senders+1)
					for i := range ls {
						ls[i] = &counterState{}
					}
					return ls
				},
				Transitions: []*Transition{{
					Name:    "COLLECT",
					Proc:    ProcessID(senders),
					MsgType: "Q",
					Quorum:  senders/2 + 1,
					Peers:   peers,
				}},
			}
			if err := p.Finalize(); err != nil {
				b.Fatal(err)
			}
			s, err := p.InitialState()
			if err != nil {
				b.Fatal(err)
			}
			bag := s.Msgs.Clone()
			for i := 0; i < senders; i++ {
				bag.Add(msg(ProcessID(i), ProcessID(senders), "Q", i))
			}
			s = NewState(s.Locals, bag)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = p.Enabled(s)
			}
		})
	}
}

// BenchmarkExecute measures building one successor of a state with an
// 18-entry bag: one message consumed, three sent.
func BenchmarkExecute(b *testing.B) {
	p := relayProtocol(b, 3)
	s := relayState(b, p)
	ev := p.Enabled(s)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Execute(s, ev); err != nil {
			b.Fatal(err)
		}
	}
}

// Package-level sinks keep the compiler from dropping what the Step
// benchmarks measure.
var (
	sinkState *State
	sinkKey   string
)

// BenchmarkExecuteStepKeep and BenchmarkExecuteStepDiscard split
// BenchmarkExecute's successor into what a search pays for one it keeps,
// Step and Keep through its own StepBuffer, and for one whose key the
// visited set already holds, Step and the key alone.
func BenchmarkExecuteStepKeep(b *testing.B) {
	p := relayProtocol(b, 3)
	s := relayState(b, p)
	ev := p.Enabled(s)[0]
	var buf StepBuffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view, err := p.Step(&buf, s, ev)
		if err != nil {
			b.Fatal(err)
		}
		sinkKey = view.Key()
		sinkState = buf.Keep()
	}
}

func BenchmarkExecuteStepDiscard(b *testing.B) {
	p := relayProtocol(b, 3)
	s := relayState(b, p)
	ev := p.Enabled(s)[0]
	var buf StepBuffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view, err := p.Step(&buf, s, ev)
		if err != nil {
			b.Fatal(err)
		}
		sinkKey = view.Key()
	}
}

// BenchmarkSuccessorKey measures the first Key of such a successor, which
// is what every search pays per event to probe its store. Successors are
// built in batches with the timer stopped.
func BenchmarkSuccessorKey(b *testing.B) {
	p := relayProtocol(b, 3)
	s := relayState(b, p)
	ev := p.Enabled(s)[0]
	batch := make([]*State, 512)
	var key string
	b.ReportAllocs()
	for i := 0; i < b.N; i += len(batch) {
		b.StopTimer()
		for j := range batch {
			ns, err := p.Execute(s, ev)
			if err != nil {
				b.Fatal(err)
			}
			batch[j] = ns
		}
		b.StartTimer()
		for _, ns := range batch[:min(len(batch), b.N-i)] {
			key = ns.Key()
		}
	}
	if key == "" {
		b.Fatal("empty key")
	}
}

// quorumBenchState is a state of the quorum bench protocol in which two of
// COLLECT's three peers have a candidate pending among unrelated traffic.
func quorumBenchState(b *testing.B, p *Protocol) *State {
	b.Helper()
	s, err := p.InitialState()
	if err != nil {
		b.Fatal(err)
	}
	bag := benchBag(16)
	bag.Add(msg(0, 3, "Q", 1))
	bag.Add(msg(1, 3, "Q", 2))
	return NewState(s.Locals, bag)
}

// BenchmarkMatching measures the matching primitive Enabled and the DPOR
// race check run per transition per state, into reused scratch.
func BenchmarkMatching(b *testing.B) {
	p := quorumBenchProtocol(b)
	t, s := p.Transitions[0], quorumBenchState(b, p)
	var ms []Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms = s.Msgs.AppendMatching(ms[:0], t.Proc, t.MsgType, t.Peers)
	}
	if len(ms) != 2 {
		b.Fatalf("matched %d messages, want 2", len(ms))
	}
}

// BenchmarkStructurallyEnabled measures the early-exit sender count the
// POR closure asks of every disabled stubborn-set member.
func BenchmarkStructurallyEnabled(b *testing.B) {
	p := quorumBenchProtocol(b)
	t, s := p.Transitions[0], quorumBenchState(b, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.StructurallyEnabled(t, s) {
			b.Fatal("quorum of 2 not met")
		}
	}
}

func quorumBenchProtocol(b *testing.B) *Protocol {
	b.Helper()
	p := &Protocol{
		Name: "exec-bench",
		N:    4,
		Init: func() []LocalState {
			return []LocalState{&counterState{}, &counterState{}, &counterState{}, &counterState{}}
		},
		Transitions: []*Transition{{
			Name:    "COLLECT",
			Proc:    3,
			MsgType: "Q",
			Quorum:  2,
			Peers:   []ProcessID{0, 1, 2},
			Apply: func(c *Ctx) {
				c.Local.(*counterState).N++
			},
		}},
	}
	if err := p.Finalize(); err != nil {
		b.Fatal(err)
	}
	return p
}

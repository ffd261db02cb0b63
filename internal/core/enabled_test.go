package core

import (
	"fmt"
	"testing"
)

// quorumTestProtocol builds a 4-process protocol where process 3 runs one
// quorum transition consuming type "Q" from peers {0,1,2} with the given
// quorum size; processes 0-2 have a dummy spontaneous transition that is
// never enabled (protocols need at least one transition per rule, and we
// drive the bag by hand).
func quorumTestProtocol(t *testing.T, quorum int, guard Guard) *Protocol {
	t.Helper()
	p := &Protocol{
		Name: fmt.Sprintf("quorumtest-%d", quorum),
		N:    4,
		Init: func() []LocalState {
			return []LocalState{&counterState{}, &counterState{}, &counterState{}, &counterState{}}
		},
		Transitions: []*Transition{
			{
				Name:    "COLLECT",
				Proc:    3,
				MsgType: "Q",
				Quorum:  quorum,
				Peers:   []ProcessID{0, 1, 2},
				Guard:   guard,
				Apply: func(c *Ctx) {
					c.Local.(*counterState).N++
				},
			},
		},
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	return p
}

func stateWithMsgs(p *Protocol, t *testing.T, msgs ...Message) *State {
	t.Helper()
	s, err := p.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	bag := s.Msgs.Clone()
	for _, m := range msgs {
		bag.Add(m)
	}
	return NewState(s.Locals, bag)
}

func TestEnabledQuorumCombinations(t *testing.T) {
	// 3 senders, quorum 2 -> C(3,2) = 3 events.
	p := quorumTestProtocol(t, 2, nil)
	s := stateWithMsgs(p, t, msg(0, 3, "Q", 0), msg(1, 3, "Q", 0), msg(2, 3, "Q", 0))
	events := p.Enabled(s)
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3 (C(3,2))", len(events))
	}
	seen := map[string]bool{}
	for _, ev := range events {
		if len(ev.Msgs) != 2 {
			t.Fatalf("event consumes %d messages, want 2", len(ev.Msgs))
		}
		snd := ev.Senders()
		if len(snd) != 2 {
			t.Fatalf("event has %d distinct senders, want 2", len(snd))
		}
		seen[fmt.Sprint(snd)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("sender combinations not distinct: %v", seen)
	}
}

func TestEnabledQuorumInsufficientSenders(t *testing.T) {
	p := quorumTestProtocol(t, 2, nil)
	s := stateWithMsgs(p, t, msg(0, 3, "Q", 0), msg(0, 3, "Q", 1))
	// Two messages but a single sender: quorum of 2 distinct senders unmet.
	if events := p.Enabled(s); len(events) != 0 {
		t.Fatalf("got %d events, want 0", len(events))
	}
}

func TestEnabledPerSenderAlternatives(t *testing.T) {
	// Sender 0 has two distinct payloads; sender 1 one: quorum 2 over
	// {0,1} yields 2 alternative events.
	p := quorumTestProtocol(t, 2, nil)
	s := stateWithMsgs(p, t, msg(0, 3, "Q", 1), msg(0, 3, "Q", 2), msg(1, 3, "Q", 0))
	if events := p.Enabled(s); len(events) != 2 {
		t.Fatalf("got %d events, want 2 alternatives", len(events))
	}
}

func TestEnabledGuardFilters(t *testing.T) {
	// Guard admits only message sets whose payloads are all equal.
	guard := func(_ LocalState, msgs []Message) bool {
		for _, m := range msgs[1:] {
			if m.Payload.Key() != msgs[0].Payload.Key() {
				return false
			}
		}
		return true
	}
	p := quorumTestProtocol(t, 2, guard)
	s := stateWithMsgs(p, t,
		msg(0, 3, "Q", 1), msg(1, 3, "Q", 1), msg(2, 3, "Q", 2))
	events := p.Enabled(s)
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1 (only senders 0,1 agree)", len(events))
	}
	if got := fmt.Sprint(events[0].Senders()); got != "[0 1]" {
		t.Fatalf("wrong quorum chosen: %s", got)
	}
}

func TestEnabledPeerRestriction(t *testing.T) {
	p := quorumTestProtocol(t, 2, nil)
	// Sender 3 is not a peer (and also the executing process itself).
	s := stateWithMsgs(p, t, msg(0, 3, "Q", 0), msg(3, 3, "Q", 0))
	if events := p.Enabled(s); len(events) != 0 {
		t.Fatalf("got %d events, want 0 (non-peer sender must not count)", len(events))
	}
}

func TestEnabledLocalGuardShortCircuit(t *testing.T) {
	p := quorumTestProtocol(t, 1, nil)
	p.Transitions[0].LocalGuard = func(ls LocalState) bool {
		return ls.(*counterState).N == 0
	}
	s := stateWithMsgs(p, t, msg(0, 3, "Q", 0))
	if len(p.Enabled(s)) != 1 {
		t.Fatal("transition should be enabled initially")
	}
	ns, err := p.Execute(s, p.Enabled(s)[0])
	if err != nil {
		t.Fatal(err)
	}
	// After one execution N=1, the local guard disables the transition
	// even if messages are pending.
	ns2 := NewState(ns.Locals, func() *Bag { b := ns.Msgs.Clone(); b.Add(msg(1, 3, "Q", 0)); return b }())
	if len(p.Enabled(ns2)) != 0 {
		t.Fatal("local guard should disable the transition")
	}
}

func TestStructurallyEnabledAndMatchingSenders(t *testing.T) {
	p := quorumTestProtocol(t, 2, nil)
	tr := p.Transitions[0]
	senders := func(s *State, peers []ProcessID) string {
		return fmt.Sprint(s.Msgs.AppendMatchingSenders(nil, tr.Proc, tr.MsgType, peers))
	}
	s := stateWithMsgs(p, t, msg(1, 3, "Q", 0))
	if p.StructurallyEnabled(tr, s) {
		t.Fatal("one sender should not satisfy quorum 2")
	}
	if got := senders(s, tr.Peers); got != "[1]" {
		t.Fatalf("matching senders = %s, want [1] (peers 0 and 2 are missing)", got)
	}
	s2 := stateWithMsgs(p, t, msg(1, 3, "Q", 0), msg(2, 3, "Q", 0))
	if !p.StructurallyEnabled(tr, s2) {
		t.Fatal("two senders should satisfy quorum 2")
	}
	// The two cases the deleted MissingSenders answered with the same nil:
	// unrestricted peers (here also a sender outside {0,1,2}) and no peer
	// missing. The senders themselves tell them apart.
	s3 := stateWithMsgs(p, t, msg(0, 3, "Q", 0), msg(1, 3, "Q", 0), msg(1, 3, "Q", 1), msg(2, 3, "Q", 0), msg(3, 3, "Q", 0))
	if got := senders(s3, nil); got != "[0 1 2 3]" {
		t.Fatalf("matching senders under nil peers = %s, want [0 1 2 3]", got)
	}
	if got := senders(s3, tr.Peers); got != "[0 1 2]" {
		t.Fatalf("matching senders with no peer missing = %s, want [0 1 2]", got)
	}
	if got := senders(s, nil); got != "[1]" {
		t.Fatalf("matching senders under nil peers = %s, want [1]", got)
	}
}

func TestPowersetSize(t *testing.T) {
	if PowersetSize(3) != 8 || PowersetSize(0) != 1 {
		t.Fatal("PowersetSize wrong on small inputs")
	}
	if PowersetSize(100) <= 0 {
		t.Fatal("PowersetSize must saturate, not overflow")
	}
}

// TestMatchingAllocatesNothing guards the point of the sorted-slice bag:
// the queries the POR closure asks per stubborn-set member, and an
// enumeration that finds nothing to return, stay off the heap.
func TestMatchingAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	reject := func(LocalState, []Message) bool { return false }
	p := quorumTestProtocol(t, 2, reject)
	tr := p.Transitions[0]
	complete := stateWithMsgs(p, t, msg(0, 3, "Q", 0), msg(1, 3, "Q", 0), msg(1, 3, "Q", 1), msg(2, 3, "Q", 0), msg(2, 0, "Q", 0))
	scratch := make([]ProcessID, 0, p.N)
	if len(complete.Msgs.AppendMatchingSenders(scratch, 3, "Q", tr.Peers)) != 3 || !p.StructurallyEnabled(tr, complete) ||
		len(p.Enabled(complete)) != 0 {
		t.Fatal("want a complete quorum whose every candidate set the guard rejects")
	}
	var sink bool
	for name, f := range map[string]func(){
		"HasMatchingSenders":    func() { sink = complete.Msgs.HasMatchingSenders(3, "Q", tr.Peers, 1) },
		"StructurallyEnabled":   func() { sink = p.StructurallyEnabled(tr, complete) },
		"AppendMatchingSenders": func() { sink = len(complete.Msgs.AppendMatchingSenders(scratch, 3, "Q", tr.Peers)) == 3 },
		"Enabled":               func() { sink = p.Enabled(complete) == nil },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 || !sink {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { sink = complete.Msgs.Clone().Len() > 0 }); n > 2 {
		t.Errorf("Bag.Clone: %v allocations per call, want at most 2", n)
	}
}

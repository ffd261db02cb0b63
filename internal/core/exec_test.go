package core

import (
	"strings"
	"testing"
)

// pingPong builds a 2-process protocol: process 0 spontaneously sends PING
// to 1 (once); process 1 replies PONG; process 0 consumes PONG.
func pingPong(t *testing.T) *Protocol {
	t.Helper()
	p := &Protocol{
		Name: "pingpong",
		N:    2,
		Init: func() []LocalState {
			return []LocalState{&counterState{}, &counterState{}}
		},
		Transitions: []*Transition{
			{
				Name:     "START",
				Proc:     0,
				Priority: 1,
				Sends:    []SendSpec{{Type: "PING", To: []ProcessID{1}}},
				LocalGuard: func(ls LocalState) bool {
					return ls.(*counterState).N == 0
				},
				Apply: func(c *Ctx) {
					c.Local.(*counterState).N = 1
					c.Send(1, "PING", NoPayload{})
				},
			},
			{
				Name:    "PING",
				Proc:    1,
				MsgType: "PING",
				Quorum:  1,
				Peers:   []ProcessID{0},
				IsReply: true,
				Sends:   []SendSpec{{Type: "PONG", ToSenders: true}},
				Apply: func(c *Ctx) {
					c.Local.(*counterState).N++
					c.Send(c.Msgs[0].From, "PONG", NoPayload{})
				},
			},
			{
				Name:    "PONG",
				Proc:    0,
				MsgType: "PONG",
				Quorum:  1,
				Peers:   []ProcessID{1},
				Apply: func(c *Ctx) {
					c.Local.(*counterState).N = 2
				},
			},
		},
	}
	p.ValidateSends = true
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExecuteSemantics(t *testing.T) {
	p := pingPong(t)
	s0, err := p.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	ev := p.Enabled(s0)
	if len(ev) != 1 || ev[0].T.Name != "START" {
		t.Fatalf("initial enabled = %v", ev)
	}
	s1, err := p.Execute(s0, ev[0])
	if err != nil {
		t.Fatal(err)
	}
	// Original state untouched (copy-on-write).
	if s0.Local(0).(*counterState).N != 0 || s0.Msgs.Len() != 0 {
		t.Fatal("Execute mutated the source state")
	}
	if s1.Local(0).(*counterState).N != 1 || s1.Msgs.Len() != 1 {
		t.Fatalf("successor wrong: local=%v msgs=%d", s1.Local(0), s1.Msgs.Len())
	}
	// Unaffected local states are shared structurally.
	if s0.Local(1) != s1.Local(1) {
		t.Fatal("unchanged local state was copied, not shared")
	}

	ev = p.Enabled(s1)
	if len(ev) != 1 || ev[0].T.Name != "PING" {
		t.Fatalf("after START enabled = %v", ev)
	}
	s2, err := p.Execute(s1, ev[0])
	if err != nil {
		t.Fatal(err)
	}
	if s2.Msgs.Len() != 1 || !s2.Msgs.HasMatchingSenders(0, "PONG", nil, 1) {
		t.Fatal("PING consumption should yield exactly one PONG")
	}

	ev = p.Enabled(s2)
	s3, err := p.Execute(s2, ev[0])
	if err != nil {
		t.Fatal(err)
	}
	if s3.Msgs.Len() != 0 || s3.Local(0).(*counterState).N != 2 {
		t.Fatal("final state wrong")
	}
	if len(p.Enabled(s3)) != 0 {
		t.Fatal("protocol should terminate (deadlock state)")
	}
}

func TestExecuteRejectsMissingMessage(t *testing.T) {
	p := pingPong(t)
	s0, _ := p.InitialState()
	bogus := Event{T: p.Transitions[1], Msgs: []Message{{From: 0, To: 1, Type: "PING"}}}
	if _, err := p.Execute(s0, bogus); err == nil {
		t.Fatal("executing with a non-pending message must fail")
	}
}

func TestValidateSendsCatchesUndeclaredSend(t *testing.T) {
	p := pingPong(t)
	p.Transitions[0].Apply = func(c *Ctx) {
		c.Local.(*counterState).N = 1
		c.Send(1, "SNEAKY", NoPayload{})
	}
	s0, _ := p.InitialState()
	if _, err := p.Execute(s0, p.Enabled(s0)[0]); err == nil ||
		!strings.Contains(err.Error(), "Sends specifications") {
		t.Fatalf("undeclared send not caught: %v", err)
	}
}

func TestValidateSendsCatchesReplyViolation(t *testing.T) {
	p := pingPong(t)
	// PING is marked IsReply; make it send to a non-sender.
	p.Transitions[1].Sends = []SendSpec{{Type: "PONG"}}
	p.Transitions[1].Apply = func(c *Ctx) {
		c.Send(1, "PONG", NoPayload{}) // to itself, not to the sender
	}
	s0, _ := p.InitialState()
	s1, err := p.Execute(s0, p.Enabled(s0)[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(s1, p.Enabled(s1)[0]); err == nil ||
		!strings.Contains(err.Error(), "IsReply") {
		t.Fatalf("reply violation not caught: %v", err)
	}
}

func TestValidateReadOnlyCatchesWrite(t *testing.T) {
	p := pingPong(t)
	p.Transitions[1].ReadOnly = true // but Apply increments N
	s0, _ := p.InitialState()
	s1, err := p.Execute(s0, p.Enabled(s0)[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(s1, p.Enabled(s1)[0]); err == nil ||
		!strings.Contains(err.Error(), "ReadOnly") {
		t.Fatalf("read-only violation not caught: %v", err)
	}
}

func TestGlobalReadRequiresDeclaration(t *testing.T) {
	p := pingPong(t)
	p.Transitions[0].Apply = func(c *Ctx) {
		c.Local.(*counterState).N = 1
		c.Global(1) // not declared in GlobalReads
	}
	s0, _ := p.InitialState()
	defer func() {
		if recover() == nil {
			t.Fatal("undeclared global read must panic")
		}
	}()
	p.Execute(s0, p.Enabled(s0)[0]) //nolint:errcheck // panics before returning
}

func TestGlobalReadDeclared(t *testing.T) {
	p := pingPong(t)
	p.Transitions[0].GlobalReads = []ProcessID{1}
	var observed int
	p.Transitions[0].Apply = func(c *Ctx) {
		c.Local.(*counterState).N = 1
		observed = c.Global(1).(*counterState).N
		c.Send(1, "PING", NoPayload{})
	}
	s0, _ := p.InitialState()
	if _, err := p.Execute(s0, p.Enabled(s0)[0]); err != nil {
		t.Fatal(err)
	}
	if observed != 0 {
		t.Fatalf("observed %d, want 0", observed)
	}
}

func TestExecuteRejectsMessageConsumedTwice(t *testing.T) {
	p := pingPong(t)
	s0, _ := p.InitialState()
	s1, err := p.Execute(s0, p.Enabled(s0)[0])
	if err != nil {
		t.Fatal(err)
	}
	ping := p.Enabled(s1)[0].Msgs[0]
	twice := Event{T: p.Transitions[1], Msgs: []Message{ping, ping}}
	if _, err := p.Execute(s1, twice); err == nil || !strings.Contains(err.Error(), "0>1:PING not pending") {
		t.Fatalf("consuming the only pending copy twice: %v", err)
	}
}

// TestValidateCatchesMutatedInstalledLocal covers the contract cached local
// keys rest on: a local state is immutable once a State holds it. Both ways
// around it — writing through Ctx.Global, and writing through a pointer
// kept from an earlier Apply — must fail under ValidateSends with the
// process and the transition named.
func TestValidateCatchesMutatedInstalledLocal(t *testing.T) {
	t.Run("through Global", func(t *testing.T) {
		p := pingPong(t)
		p.Transitions[0].GlobalReads = []ProcessID{1}
		p.Transitions[0].Apply = func(c *Ctx) {
			c.Local.(*counterState).N = 1
			c.Global(1).(*counterState).N = 41
			c.Send(1, "PING", NoPayload{})
		}
		s0, _ := p.InitialState()
		_, err := p.Execute(s0, p.Enabled(s0)[0])
		if err == nil || !strings.Contains(err.Error(), "local state of process 1 was mutated") ||
			!strings.Contains(err.Error(), "transition 0/START") {
			t.Fatalf("write through Ctx.Global not caught: %v", err)
		}
	})
	t.Run("through a kept pointer", func(t *testing.T) {
		p := pingPong(t)
		var kept *counterState
		p.Transitions[0].Apply = func(c *Ctx) {
			kept = c.Local.(*counterState)
			kept.N = 1
			c.Send(1, "PING", NoPayload{})
		}
		p.Transitions[1].Apply = func(c *Ctx) {
			kept.N = 7 // process 0's installed state, from process 1
			c.Local.(*counterState).N++
			c.Send(c.Msgs[0].From, "PONG", NoPayload{})
		}
		s0, _ := p.InitialState()
		s1, err := p.Execute(s0, p.Enabled(s0)[0])
		if err != nil {
			t.Fatal(err)
		}
		_, err = p.Execute(s1, p.Enabled(s1)[0])
		if err == nil || !strings.Contains(err.Error(), "local state of process 0 was mutated") ||
			!strings.Contains(err.Error(), "transition 1/PING") {
			t.Fatalf("write through a kept pointer not caught: %v", err)
		}
	})
}

// TestExecuteSharesUnchangedLocals pins the two shapes of a successor: an
// event that changes its process's local state copies the vector and
// replaces one slot, one that leaves it as it was shares the parent's.
func TestExecuteSharesUnchangedLocals(t *testing.T) {
	p := pingPong(t)
	p.Transitions[1].Apply = func(c *Ctx) { c.Send(c.Msgs[0].From, "PONG", NoPayload{}) }
	s0, _ := p.InitialState()
	s1, err := p.Execute(s0, p.Enabled(s0)[0]) // START sets N
	if err != nil {
		t.Fatal(err)
	}
	if &s1.Locals[0] == &s0.Locals[0] || s1.Locals[1] != s0.Locals[1] || s1.LocalKey(1) != s0.LocalKey(1) {
		t.Fatal("a changed local state must get a vector of its own that shares the other processes' states")
	}
	if s0.Local(0).(*counterState).N != 0 || s0.LocalKey(0) == s1.LocalKey(0) {
		t.Fatal("the parent's local state or key changed")
	}
	s2, err := p.Execute(s1, p.Enabled(s1)[0]) // PING now only replies
	if err != nil {
		t.Fatal(err)
	}
	if &s2.Locals[0] != &s1.Locals[0] || s2.Msgs.Key() == s1.Msgs.Key() {
		t.Fatalf("an unchanged local state must share the parent's vector and still get its own bag: %s -> %s", s1, s2)
	}
}

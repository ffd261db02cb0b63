package core

import (
	"strings"
	"sync"
	"testing"
)

// relayProtocol is a 4-process protocol whose process 3 consumes one "Q"
// from any of the others, counts it, and sends `sends` distinct "R"s back.
func relayProtocol(tb testing.TB, sends int) *Protocol {
	tb.Helper()
	p := &Protocol{
		Name: "relay",
		N:    4,
		Init: func() []LocalState {
			return []LocalState{&counterState{}, &counterState{}, &counterState{}, &counterState{}}
		},
		Transitions: []*Transition{{
			Name:    "RELAY",
			Proc:    3,
			MsgType: "Q",
			Quorum:  1,
			Peers:   []ProcessID{0, 1, 2},
			Apply: func(c *Ctx) {
				c.Local.(*counterState).N++
				for i := 0; i < sends; i++ {
					c.Send(ProcessID(i%3), "R", intPayload{V: i})
				}
			},
		}},
	}
	if err := p.Finalize(); err != nil {
		tb.Fatal(err)
	}
	return p
}

// relayState is a state of the relay protocol with nine distinct "Q"s
// pending among unrelated traffic: nine enabled events, an 18-entry bag.
func relayState(tb testing.TB, p *Protocol) *State {
	tb.Helper()
	s, err := p.InitialState()
	if err != nil {
		tb.Fatal(err)
	}
	bag := NewBag()
	for i := 0; i < 9; i++ {
		bag.Add(msg(ProcessID(i%3), 3, "Q", i))
		bag.Add(msg(ProcessID(i%3), ProcessID((i+1)%3), "X", i))
	}
	return NewState(s.Locals, bag)
}

// TestSuccessorAllocations pins what a successor costs: building it, a fixed
// number of objects for a given number of sends; keying it, one.
func TestSuccessorAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	var ns *State
	var key string
	for _, c := range []struct{ sends, want int }{
		// The state with its local states and keys, and the bag entries;
		// the local state's Clone and Key, one object each for a
		// counterState. The StepBuffer, with its Ctx and send buffer, is
		// pooled.
		{0, 4},
		// Plus the message key (an intPayload's own key is a constant of
		// strconv's) and the new message's record.
		{1, 6},
		// Three message keys, and one block for the three records.
		{3, 8},
	} {
		p := relayProtocol(t, c.sends)
		s := relayState(t, p)
		ev := p.Enabled(s)[0]
		execute := func() {
			var err error
			if ns, err = p.Execute(s, ev); err != nil {
				t.Fatal(err)
			}
		}
		build := testing.AllocsPerRun(100, execute)
		if int(build) > c.want {
			t.Errorf("Execute with %d sends: %v allocations, want at most %d", c.sends, build, c.want)
		}
		// Every local key is in place when Execute returns, so the first
		// Key is the key string itself and nothing else.
		if n := testing.AllocsPerRun(100, func() { execute(); key = ns.Key() }); n != build+1 {
			t.Errorf("first Key of a successor with %d sends: %v allocations, want 1", c.sends, n-build)
		}
		if n := testing.AllocsPerRun(100, func() { key = ns.Key() }); n != 0 || key == "" {
			t.Errorf("repeated Key: %v allocations, want 0", n)
		}
	}
}

// TestStepAllocations pins what stepping an event costs when the search
// then discards the successor: the local state's Clone and Key and one key
// per sent message, which the transient view's key is built from. The view
// needs no State block, no bag entries and no records, and once the buffer
// has grown its send buffer does not grow again.
func TestStepAllocations(t *testing.T) {
	for _, sends := range []int{0, 1, 3} {
		p := relayProtocol(t, sends)
		s := relayState(t, p)
		ev := p.Enabled(s)[0]
		var b StepBuffer
		var view *State
		step := func() {
			var err error
			if view, err = p.Step(&b, s, ev); err != nil {
				t.Fatal(err)
			}
		}
		if n, want := testing.AllocsPerRun(100, step), float64(2+sends); n != want {
			t.Errorf("Step with %d sends: %v allocations, want %v", sends, n, want)
		}
		kept, err := p.Execute(s, ev)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := view.Key(), kept.Key(); got != want {
			t.Errorf("Step with %d sends: view key %s, Execute %s", sends, got, want)
		}
	}
}

// TestKeepOutlivesTheBuffer keeps successors of one buffer, steps it again
// and again, and checks that every kept state still has the key and bag
// it had when kept, and that a key the view built travels with it.
func TestKeepOutlivesTheBuffer(t *testing.T) {
	p := relayProtocol(t, 3)
	s := relayState(t, p)
	var b StepBuffer
	var kept []*State
	var want []string
	for i, ev := range p.Enabled(s) {
		view, err := p.Step(&b, s, ev)
		if err != nil {
			t.Fatal(err)
		}
		var key string
		if i%2 == 0 {
			key = view.Key()
		}
		ns := b.Keep()
		if i%2 == 0 && testing.AllocsPerRun(1, func() { _ = ns.Key() }) != 0 {
			t.Errorf("event %d: the kept state rebuilt the key its view had built", i)
		}
		if key == "" {
			key = ns.Key()
		}
		kept, want = append(kept, ns), append(want, key)
	}
	for i, ns := range kept {
		fresh := NewState(ns.Locals, ns.Msgs.Clone())
		if ns.Key() != want[i] || fresh.Key() != want[i] {
			t.Errorf("successor %d: key %s, rebuilt %s, want %s", i, ns.Key(), fresh.Key(), want[i])
		}
	}
}

// TestConcurrentExecuteAndKey shares states between goroutines the way the
// ParallelBFS workers do: executors build different successors of one
// parent, and of each other's successors, while readers take Key and
// ComponentKeys of the same states for the first time. Every key must be
// the one a single goroutine computes; `make race` runs this under the
// race detector.
func TestConcurrentExecuteAndKey(t *testing.T) {
	p := relayProtocol(t, 2)
	componentKey := func(s *State) string {
		locals, bag := s.ComponentKeys()
		return strings.Join(locals, "|") + "#" + bag
	}

	// The sequential answer: the keys of the parent, of its successors and
	// of each successor's first successor.
	parent := relayState(t, p)
	events := p.Enabled(parent)
	if len(events) < 8 {
		t.Fatalf("%d events enabled, want at least 8", len(events))
	}
	events = events[:8]
	wantParent := parent.Key()
	wantChild, wantGrand := make([]string, len(events)), make([]string, len(events))
	for i, ev := range events {
		child, err := p.Execute(parent, ev)
		if err != nil {
			t.Fatal(err)
		}
		grand, err := p.Execute(child, p.Enabled(child)[0])
		if err != nil {
			t.Fatal(err)
		}
		wantChild[i], wantGrand[i] = child.Key(), grand.Key()
	}

	const readers = 4
	for round := 0; round < 20; round++ {
		parent := relayState(t, p) // not keyed yet
		children := make([]chan *State, len(events))
		for i := range children {
			children[i] = make(chan *State, readers) // one send per reader, never blocks
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, ev := range events {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				child, err := p.Execute(parent, ev)
				if err != nil {
					t.Error(err)
					close(children[i])
					return
				}
				for r := 0; r < readers; r++ {
					children[i] <- child
				}
				close(children[i])
				// Extend the child while the readers key it.
				grand, err := p.Execute(child, p.Enabled(child)[0])
				if err != nil {
					t.Error(err)
					return
				}
				if got := grand.Key(); got != wantGrand[i] {
					t.Errorf("round %d: grandchild %d has key %s, want %s", round, i, got, wantGrand[i])
				}
				if got := child.Key(); got != wantChild[i] {
					t.Errorf("round %d: child %d has key %s to its executor, want %s", round, i, got, wantChild[i])
				}
			}()
		}
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if got := parent.Key(); got != wantParent {
					t.Errorf("round %d: parent has key %s, want %s", round, got, wantParent)
				}
				if got := componentKey(parent); got != wantParent {
					t.Errorf("round %d: parent has component keys %s, want %s", round, got, wantParent)
				}
				for i := range children {
					child, ok := <-children[i]
					if !ok {
						continue
					}
					if r%2 == 0 {
						if got := child.Key(); got != wantChild[i] {
							t.Errorf("round %d: child %d has key %s, want %s", round, i, got, wantChild[i])
						}
					}
					if got := componentKey(child); got != wantChild[i] {
						t.Errorf("round %d: child %d has component keys %s, want %s", round, i, got, wantChild[i])
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}

package core

import (
	"fmt"
	"sync"
)

// Ctx is the execution context handed to a transition's Apply: the private
// clone of the executing process's local state, the consumed messages, and
// the send primitive. It is valid until Apply returns; the StepBuffer it
// lives in reuses it.
type Ctx struct {
	// Self is the executing process.
	Self ProcessID
	// Local is a private clone of Self's local state; Apply mutates it
	// freely (typically after a type assertion to the concrete type).
	Local LocalState
	// Msgs is the consumed message set, sorted by canonical key. The order
	// carries no meaning (MP semantics); treat it as a set.
	Msgs []Message

	t     *Transition // the executing transition; its GlobalReads gate Global
	pre   *State      // the state the event executes in, which Global reads
	sends []Message
}

// Senders returns the distinct senders of the consumed message set.
func (c *Ctx) Senders() []ProcessID { return Senders(c.Msgs) }

// Send enqueues a message from Self to the given recipient. Messages become
// visible in the successor state only.
func (c *Ctx) Send(to ProcessID, typ string, p Payload) {
	c.sends = append(c.sends, Message{From: c.Self, To: to, Type: typ, Payload: p})
}

// Global returns the pre-state local state of process p, which must not be
// mutated. It is valid inside Apply only, and panics unless the executing
// transition declared p in GlobalReads: global reads break process
// isolation and must be visible to the POR analysis, which treats the
// transition as dependent on the processes it reads. It exists for
// specification instrumentation (history/observer variables), in the spirit
// of the escape hatch the paper documents in its appendix (footnote 7).
func (c *Ctx) Global(p ProcessID) LocalState {
	for _, q := range c.t.GlobalReads {
		if q == p {
			return c.pre.Locals[p]
		}
	}
	panic(fmt.Sprintf("core: transition of process %d reads process %d without declaring it in GlobalReads", c.Self, p))
}

// StepBuffer is caller-owned memory that successors are computed into: the
// Ctx a transition runs in with its send buffer, a State block for the
// successor, and its bag entries. Protocol.Step fills it and returns a
// transient view of the successor; Keep hands the view over as an ordinary
// State, and the buffer takes fresh memory for its next Step. A search that
// asks its visited set about the view's key before keeping it pays for a
// State block, a bag and message records only for successors it has not
// seen. The zero value is ready to use. A StepBuffer serves one goroutine
// at a time.
type StepBuffer struct {
	ctx Ctx
	// view is the last Step's successor: small when it shares the parent's
	// local vectors, big (which holds them in its own allocation) when the
	// event changed its process's key. Keep hands it over.
	view, small, big *State
	entries          []bagEntry
	owned            bool  // entries was allocated for view's bag and goes with it
	fresh            []int // positions in entries whose record is a slot of ctx.sends
}

// Step applies event e to state s (§II-A semantics) and returns the
// successor as a transient view into b: the consumed messages are
// removed, the local state of the executing process is replaced by the
// result of the transition body, and the sent messages are added. s is not
// mutated and must not be a view of b. The view is valid until b's next
// Step; everything reached through it may then be overwritten, except its
// strings and the local states, which are immutable. Keep turns it into an
// ordinary State. The other processes' local states and their cached keys
// are inherited, only the executing process's key is taken, and the bag is
// one merge of s's entries, the consumed set and the sends.
func (p *Protocol) Step(b *StepBuffer, s *State, e Event) (*State, error) {
	t := e.T
	var dropBuf [8]int
	drop, missing := s.Msgs.locate(dropBuf[:0], e.Msgs)
	if missing != nil {
		return nil, fmt.Errorf("execute %s: message %s not pending", e, *missing)
	}
	b.ctx = Ctx{
		Self:  t.Proc,
		Local: s.Locals[t.Proc].Clone(),
		Msgs:  e.Msgs,
		t:     t,
		pre:   s,
		sends: b.ctx.sends[:0],
	}
	if t.Apply != nil {
		t.Apply(&b.ctx)
	}
	local, sends := b.ctx.Local, b.ctx.sends
	localKey := local.Key()
	if p.ValidateSends {
		if t.ReadOnly && localKey != s.localKeys[t.Proc] {
			return nil, fmt.Errorf("transition %s is marked ReadOnly but changed the local state", t)
		}
		if err := s.validateLocalKeys(e); err != nil {
			return nil, err
		}
	}
	for _, m := range sends {
		if m.To < 0 || int(m.To) >= p.N {
			return nil, fmt.Errorf("execute %s: send to process %d out of range", e, m.To)
		}
		if p.ValidateSends {
			if err := validateSend(t, m, e.Msgs); err != nil {
				return nil, err
			}
		}
	}
	SortMessages(sends)
	if localKey == s.localKeys[t.Proc] {
		if b.small == nil {
			b.small = new(State)
		}
		b.view = b.small
		*b.view = State{Locals: s.Locals, localKeys: s.localKeys}
	} else {
		if b.big == nil || len(b.big.Locals) != len(s.Locals) {
			b.big = newLocalsState(len(s.Locals))
		}
		b.view = b.big
		locals, keys := b.view.Locals, b.view.localKeys
		*b.view = State{Locals: locals, localKeys: keys}
		copy(locals, s.Locals)
		copy(keys, s.localKeys)
		locals[t.Proc], keys[t.Proc] = local, localKey
	}
	if n := s.Msgs.successorLen(drop, sends); cap(b.entries) < n {
		b.entries, b.owned = make([]bagEntry, 0, n), true
	} else {
		b.owned = false
	}
	b.entries, b.fresh = s.Msgs.appendSuccessor(b.entries[:0], b.fresh[:0], drop, sends)
	b.view.bag = Bag{entries: b.entries, size: s.Msgs.size - len(drop) + len(sends)}
	b.view.Msgs = &b.view.bag
	if p.ValidateSends {
		if err := p.validateUniqueness(b.view); err != nil {
			return nil, err
		}
	}
	return b.view, nil
}

// Keep hands the view the last successful Step returned over to the
// caller as an ordinary, immutable State, key included if Key has built
// it, and gives up the memory the view was built in. What the buffer keeps
// reusing is copied out: the records of the messages the parent never
// held, into one block of their exact number, and the bag entries, at
// their exact number, when Step merged them into reused memory rather than
// allocating them for this successor.
func (b *StepBuffer) Keep() *State {
	ns := b.view
	if ns == b.small {
		b.small = nil
	} else {
		b.big = nil
	}
	entries := ns.bag.entries
	if b.owned {
		b.entries, b.owned = nil, false
	} else {
		entries = append(make([]bagEntry, 0, len(entries)), entries...)
		ns.bag.entries = entries
	}
	if len(b.fresh) > 0 {
		recs := make([]Message, len(b.fresh))
		for i, pos := range b.fresh {
			recs[i] = *entries[pos].msg
			entries[pos].msg = &recs[i]
		}
	}
	return ns
}

// stepPool recycles the buffers Execute steps through, one per concurrent
// Execute.
var stepPool = sync.Pool{New: func() any { return new(StepBuffer) }}

// Execute applies event e to state s and returns the successor state: Step
// through a pooled StepBuffer, then Keep.
func (p *Protocol) Execute(s *State, e Event) (*State, error) {
	b := stepPool.Get().(*StepBuffer)
	defer stepPool.Put(b)
	if _, err := p.Step(b, s, e); err != nil {
		return nil, err
	}
	return b.Keep(), nil
}

// validateLocalKeys re-derives the key of every local state of s and
// compares it with the cached one a successor is about to inherit (debug
// mode). A mismatch means some transition mutated a local state after it
// was installed in a state — through Ctx.Global or a pointer it kept —
// which cached keys turn into a wrong visited set. e is the event that just
// ran on s: its transition is the culprit unless an earlier one kept a
// pointer.
func (s *State) validateLocalKeys(e Event) error {
	for i, l := range s.Locals {
		if k := l.Key(); k != s.localKeys[i] {
			return fmt.Errorf("execute %s: the local state of process %d was mutated after it was installed in a state (key %q when installed, %q now); transition %s or an earlier one changed a local state it does not own", e, i, s.localKeys[i], k, e.T)
		}
	}
	return nil
}

// validateUniqueness checks the UniquePerSender claims of all transitions
// against a reached state (debug mode): the static POR relies on them.
func (p *Protocol) validateUniqueness(s *State) error {
	var ms []Message
	for _, t := range p.Transitions {
		if !t.UniquePerSender {
			continue
		}
		// Senders arrive in ascending order: with two offending senders
		// the error reported is the lower one's.
		ms = s.Msgs.AppendMatching(ms[:0], t.Proc, t.MsgType, t.Peers)
		for i := 0; i < len(ms); {
			j := i + 1
			for j < len(ms) && ms[j].From == ms[i].From {
				j++
			}
			if j-i > 1 {
				return fmt.Errorf("transition %s is marked UniquePerSender but sender %d has %d pending candidates in a reachable state", t, ms[i].From, j-i)
			}
			i = j
		}
	}
	return nil
}

// validateSend checks that a sent message is covered by the transition's
// static send specifications, and that reply transitions only send back to
// senders of the consumed set (Definition 4).
func validateSend(t *Transition, m Message, consumed []Message) error {
	isSender := func(q ProcessID) bool {
		for _, c := range consumed {
			if c.From == q {
				return true
			}
		}
		return false
	}
	if t.IsReply && !isSender(m.To) {
		return fmt.Errorf("transition %s is marked IsReply but sends %s to a non-sender", t, m)
	}
	for _, spec := range t.Sends {
		if spec.Type != m.Type {
			continue
		}
		if spec.ToSenders && !isSender(m.To) {
			continue
		}
		if spec.To != nil {
			found := false
			for _, q := range spec.To {
				if q == m.To {
					found = true
					break
				}
			}
			if !found {
				continue
			}
		}
		return nil
	}
	return fmt.Errorf("transition %s sends %s, which matches none of its Sends specifications", t, m)
}

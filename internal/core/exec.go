package core

import (
	"fmt"
	"sync"
)

// Ctx is the execution context handed to a transition's Apply: the private
// clone of the executing process's local state, the consumed messages, and
// the send primitive. It is valid until Apply returns; Execute reuses it.
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

// ctxPool recycles the contexts Apply runs in, one per concurrent Execute.
var ctxPool = sync.Pool{New: func() any { return new(Ctx) }}

// Execute applies event e to state s and returns the successor state
// (§II-A semantics): the consumed messages are removed, the local state of
// the executing process is replaced by the result of the transition body,
// and the sent messages are added. s is not mutated. The successor costs
// what the event changed: the other processes' local states and their
// cached keys are inherited, only the executing process's key is taken, and
// the bag is one merge of s's entries, the consumed set and the sends that
// shares every untouched message record with s.
func (p *Protocol) Execute(s *State, e Event) (*State, error) {
	t := e.T
	var dropBuf [8]int
	drop, missing := s.Msgs.locate(dropBuf[:0], e.Msgs)
	if missing != nil {
		return nil, fmt.Errorf("execute %s: message %s not pending", e, *missing)
	}
	ctx := ctxPool.Get().(*Ctx)
	*ctx = Ctx{
		Self:  t.Proc,
		Local: s.Locals[t.Proc].Clone(),
		Msgs:  e.Msgs,
		t:     t,
		pre:   s,
	}
	if t.Apply != nil {
		t.Apply(ctx)
	}
	local, sends := ctx.Local, ctx.sends
	*ctx = Ctx{} // the send buffer now belongs to the successor's bag
	ctxPool.Put(ctx)
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
	ns := s.withLocal(t.Proc, local, localKey)
	ns.bag = s.Msgs.successor(drop, sends)
	ns.Msgs = &ns.bag
	if p.ValidateSends {
		if err := p.validateUniqueness(ns); err != nil {
			return nil, err
		}
	}
	return ns, nil
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

package core

import "fmt"

// Ctx is the execution context handed to a transition's Apply: the private
// clone of the executing process's local state, the consumed messages, and
// the send primitive.
type Ctx struct {
	// Self is the executing process.
	Self ProcessID
	// Local is a private clone of Self's local state; Apply mutates it
	// freely (typically after a type assertion to the concrete type).
	Local LocalState
	// Msgs is the consumed message set, sorted by canonical key. The order
	// carries no meaning (MP semantics); treat it as a set.
	Msgs []Message

	view  GlobalView
	reads []ProcessID
	sends []Message
}

// Senders returns the distinct senders of the consumed message set.
func (c *Ctx) Senders() []ProcessID { return Senders(c.Msgs) }

// Send enqueues a message from Self to the given recipient. Messages become
// visible in the successor state only.
func (c *Ctx) Send(to ProcessID, typ string, p Payload) {
	c.sends = append(c.sends, Message{From: c.Self, To: to, Type: typ, Payload: p})
}

// Global returns the pre-state local state of process p, read-only. It
// panics unless the executing transition declared p in GlobalReads: global
// reads break process isolation and must be visible to the POR analysis.
func (c *Ctx) Global(p ProcessID) LocalState {
	for _, q := range c.reads {
		if q == p {
			return c.view.Local(p)
		}
	}
	panic(fmt.Sprintf("core: transition of process %d reads process %d without declaring it in GlobalReads", c.Self, p))
}

// Execute applies event e to state s and returns the successor state
// (§II-A semantics): the consumed messages are removed, the local state of
// the executing process is replaced by the result of the transition body,
// and the sent messages are added. s is not mutated; unaffected local
// states are structurally shared.
func (p *Protocol) Execute(s *State, e Event) (*State, error) {
	t := e.T
	bag := s.Msgs.Clone()
	for _, m := range e.Msgs {
		if !bag.Remove(m) {
			return nil, fmt.Errorf("execute %s: message %s not pending", e, m)
		}
	}
	locals := make([]LocalState, len(s.Locals))
	copy(locals, s.Locals)
	ctx := &Ctx{
		Self:  t.Proc,
		Local: s.Locals[t.Proc].Clone(),
		Msgs:  e.Msgs,
		view:  GlobalView{locals: s.Locals},
		reads: t.GlobalReads,
	}
	if t.Apply != nil {
		t.Apply(ctx)
	}
	if p.ValidateSends && t.ReadOnly && ctx.Local.Key() != s.Locals[t.Proc].Key() {
		return nil, fmt.Errorf("transition %s is marked ReadOnly but changed the local state", t)
	}
	locals[t.Proc] = ctx.Local
	for _, m := range ctx.sends {
		if m.To < 0 || int(m.To) >= p.N {
			return nil, fmt.Errorf("execute %s: send to process %d out of range", e, m.To)
		}
		if p.ValidateSends {
			if err := validateSend(t, m, e.Msgs); err != nil {
				return nil, err
			}
		}
		bag.Add(m)
	}
	ns := NewState(locals, bag)
	if p.ValidateSends {
		if err := p.validateUniqueness(ns); err != nil {
			return nil, err
		}
	}
	return ns, nil
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

package core

import "fmt"

// ExecuteByCloning is Protocol.Execute as it was before successors were
// built from their parent's delta, kept as the oracle of the external
// tests: the bag is cloned and mutated message by message with the public
// Clone/Remove/Add, and the state comes from NewState, which takes every
// local key afresh. It skips the ValidateSends checks.
func (p *Protocol) ExecuteByCloning(s *State, e Event) (*State, error) {
	t := e.T
	bag := s.Msgs.Clone()
	for _, m := range e.Msgs {
		if !bag.Remove(m) {
			return nil, fmt.Errorf("execute %s: message %s not pending", e, m)
		}
	}
	locals := append([]LocalState(nil), s.Locals...)
	ctx := &Ctx{Self: t.Proc, Local: s.Locals[t.Proc].Clone(), Msgs: e.Msgs, t: t, pre: s}
	if t.Apply != nil {
		t.Apply(ctx)
	}
	locals[t.Proc] = ctx.Local
	for _, m := range ctx.sends {
		if m.To < 0 || int(m.To) >= p.N {
			return nil, fmt.Errorf("execute %s: send to process %d out of range", e, m.To)
		}
		bag.Add(m)
	}
	return NewState(locals, bag), nil
}

package core

import (
	"strings"
	"sync"
)

// LocalState is the state of a single process. Implementations must provide
// a canonical encoding and a deep clone; transitions mutate only the clone
// handed to them by the execution engine.
//
// A local state is immutable once installed in a State (returned by Init,
// or left in Ctx.Local when Apply returns): Key is taken once per installed
// value and cached in the State, and every successor that leaves the process
// alone inherits both the value and the cached key. A transition that
// mutates a local state it does not own — one reached through Ctx.Global,
// or through a pointer kept from an earlier Apply — makes every state that
// shares the value answer Key with a stale encoding. Protocol.ValidateSends
// detects it.
type LocalState interface {
	// Key returns a canonical, collision-free encoding of the local state.
	Key() string
	// Clone returns an independent deep copy.
	Clone() LocalState
}

// State is a global protocol state: one local state per process plus the
// multiset of in-flight messages. States are immutable once constructed and
// are built by NewState, Protocol.Execute and StepBuffer.Keep only (a
// transient view from Protocol.Step belongs to its buffer and changes with
// the next Step); a successor shares with its parent the local states,
// their cached keys and the message records the event left alone — the
// whole Locals slice, if the executing process's local state came out of
// the event with the key it went in with.
type State struct {
	Locals []LocalState
	Msgs   *Bag

	// localKeys[i] is Locals[i].Key(). It is complete when the state is
	// constructed and never written afterwards, so Execute may read it on
	// one goroutine while another takes Key for the first time.
	localKeys []string
	keyOnce   sync.Once
	key       string // canonical encoding, built by the first Key call
	bag       Bag    // what Msgs points to in a state built by Execute
}

// NewState builds a state from locals and a bag. The arguments are owned by
// the new state and must not be mutated afterwards.
func NewState(locals []LocalState, msgs *Bag) *State {
	if msgs == nil {
		msgs = NewBag()
	}
	keys := make([]string, len(locals))
	for i, l := range locals {
		keys[i] = l.Key()
	}
	return &State{Locals: locals, Msgs: msgs, localKeys: keys}
}

// inlineProcs is the largest system whose successors keep their local states
// and keys inside the State's own allocation. The bundled models have six or
// seven processes.
const inlineProcs = 8

// newLocalsState returns an empty state with room for n local states and
// their keys, in the same allocation as the State itself up to inlineProcs
// processes.
func newLocalsState(n int) *State {
	if n > inlineProcs {
		return &State{Locals: make([]LocalState, n), localKeys: make([]string, n)}
	}
	b := new(struct {
		s      State
		locals [inlineProcs]LocalState
		keys   [inlineProcs]string
	})
	b.s.Locals, b.s.localKeys = b.locals[:n:n], b.keys[:n:n]
	return &b.s
}

// Key returns the canonical encoding of the state: the local-state keys
// joined by '|', then '#', then the bag key. Two states are equal iff their
// keys are equal. The key is assembled once, from the cached local-state
// and message keys, in one allocation of exactly its length; concurrent
// first calls are safe.
func (s *State) Key() string {
	s.keyOnce.Do(s.buildKey)
	return s.key
}

func (s *State) buildKey() {
	n := 1 + s.Msgs.keyLen()
	for i, k := range s.localKeys {
		if i > 0 {
			n++
		}
		n += len(k)
	}
	var sb strings.Builder
	sb.Grow(n)
	for i, k := range s.localKeys {
		if i > 0 {
			sb.WriteByte('|')
		}
		sb.WriteString(k)
	}
	sb.WriteByte('#')
	s.Msgs.appendKey(&sb)
	s.key = sb.String()
}

// ComponentKeys returns the canonical encoding of the state component by
// component: one key per process local state, plus the message-bag key.
// Key() is exactly the locals joined by '|', then '#', then the bag key —
// ComponentKeys exposes the parts before they are flattened, so collapse
// compression (explore.Collapser) can intern each component in a shared
// table instead of re-splitting the joined string (local keys may contain
// any byte, so splitting the flat key would be ambiguous). locals is the
// state's own cache, shared with other states: it must not be modified.
func (s *State) ComponentKeys() (locals []string, bag string) {
	return s.localKeys, s.Msgs.Key()
}

// LocalKey returns Local(p).Key() from the state's cache.
func (s *State) LocalKey(p ProcessID) string { return s.localKeys[p] }

// Local returns the local state of process p.
func (s *State) Local(p ProcessID) LocalState { return s.Locals[p] }

// String returns the canonical key (useful in error messages and traces).
func (s *State) String() string { return s.Key() }

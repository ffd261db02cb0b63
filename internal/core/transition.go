package core

import (
	"fmt"
	"strconv"
	"strings"
)

// SendSpec statically describes one kind of message a transition may send.
// It corresponds to the messageOut/senders annotations of the paper's
// Table IV and feeds the static dependence analysis of package por.
type SendSpec struct {
	// Type is the message type that may be sent.
	Type string
	// To restricts the possible recipients; nil means any process.
	To []ProcessID
	// ToSenders declares that recipients are a subset of the senders of
	// the consumed message set (Definition 4, reply transitions). For a
	// transition whose Peers are restricted (e.g. by reply-split), the
	// possible recipients are then exactly those peers.
	ToSenders bool
}

// Guard decides whether a transition may consume the given message set in
// the given local state (§II-A). msgs is sorted by canonical key; the order
// carries no meaning. Guards must be pure: no mutation, no sends, and no
// reference to msgs kept past the call (enumeration reuses the slice).
type Guard func(local LocalState, msgs []Message) bool

// Apply executes the body of a transition. It may mutate c.Local (a private
// clone), send messages via c.Send, and — only for ReadsGlobal transitions —
// inspect other processes' pre-states via c.Global.
type Apply func(c *Ctx)

// Transition is a guarded atomic event of one process: it consumes a set of
// messages, updates the local state, and sends messages (§II-A). The
// annotation fields mirror the paper's Table IV and are consumed by the POR
// and refinement packages.
type Transition struct {
	// Name identifies the transition; (Proc, Name) must be unique within a
	// protocol. By the paper's convention the name of an unrefined
	// transition matches the message type it consumes; refined transitions
	// carry a "__<peers>" suffix.
	Name string
	// Proc is the process executing the transition.
	Proc ProcessID
	// MsgType is the type of messages consumed. Empty for spontaneous
	// transitions (Quorum == 0), which model the paper's driver-sent
	// "fake messages" as guards over the local state.
	MsgType string
	// Quorum is the exact number of distinct senders whose messages the
	// transition consumes in one step (Definition 2): 0 = spontaneous,
	// 1 = single-message, >1 = quorum transition. The special value
	// AnyQuorum selects the paper's unrestricted §II-A semantics: the
	// transition may consume any non-empty subset of matching pending
	// messages the guard accepts, enumerated over the powerset (§IV-A).
	Quorum int
	// Peers restricts the allowed senders of consumed messages; nil means
	// any process. Quorum-split and reply-split refine transitions by
	// narrowing Peers (Definition 3).
	Peers []ProcessID
	// Guard decides enabledness; nil means "enabled whenever the message
	// set is structurally complete".
	Guard Guard
	// LocalGuard is an optional necessary condition of Guard that depends
	// on the local state only (the paper's isStateSensitive annotation):
	// whenever LocalGuard is false the transition must be disabled for
	// every message set. It lets the static POR conclude that a disabled
	// transition can only be enabled by its own process, and lets
	// enumeration skip message matching early.
	LocalGuard func(local LocalState) bool
	// Apply is the transition body; nil means "consume and do nothing".
	Apply Apply

	// Priority orders seed candidates for the static POR's "opposite
	// transaction" heuristic (§V-B): higher values are preferred, meaning
	// the transition starts a new protocol instance or at least does not
	// terminate an ongoing one.
	Priority int
	// Visible marks transitions that can change the truth value of the
	// protocol's invariant. POR never reduces away states around visible
	// transitions (ample condition C2).
	Visible bool
	// IsReply marks reply transitions (Definition 4): every send goes back
	// to a sender of the consumed messages. Reply-split refines these.
	IsReply bool
	// Sends lists the kinds of messages the transition may send.
	Sends []SendSpec
	// ReadOnly declares that Apply never modifies the local state (the
	// negation of the paper's isWrite annotation, Table IV). Two ReadOnly
	// transitions of the same process that cannot contend for the same
	// messages commute, which lets the POR analysis decouple them — e.g.
	// a storage base object answering probes of different readers.
	// Protocol.ValidateSends checks the claim on every execution.
	ReadOnly bool
	// UniquePerSender declares that in every reachable state, every
	// allowed sender has at most one pending message this transition can
	// consume (e.g. one READ_REPL per acceptor per ballot). The static POR
	// then knows that an enabled transition's event set can only grow
	// through senders it is still missing, which sharpens stubborn sets —
	// the dynamic counterpart of the paper's "READ_REPLij can be enabled
	// only by transitions of acceptors i and j" argument (§III-C).
	// Protocol.ValidateSends checks the claim on every reached state.
	UniquePerSender bool
	// GlobalReads lists processes whose state Apply reads through
	// Ctx.Global (specification instrumentation). POR treats the
	// transition as dependent on every transition of those processes.
	GlobalReads []ProcessID

	idx int // position in Protocol.Transitions, set by Finalize
}

// Index returns the transition's position in its protocol's transition
// list. Valid only after Protocol.Finalize.
func (t *Transition) Index() int { return t.idx }

// String returns "proc/name".
func (t *Transition) String() string {
	return t.Proc.String() + "/" + t.Name
}

// Spontaneous reports whether the transition consumes no messages.
func (t *Transition) Spontaneous() bool { return t.Quorum == 0 }

// guardOK evaluates the guard, treating nil as true.
func (t *Transition) guardOK(local LocalState, msgs []Message) bool {
	if t.LocalGuard != nil && !t.LocalGuard(local) {
		return false
	}
	if t.Guard == nil {
		return true
	}
	return t.Guard(local, msgs)
}

// LocalGuardOK evaluates the local-state guard, treating nil as true.
func (t *Transition) LocalGuardOK(local LocalState) bool {
	return t.LocalGuard == nil || t.LocalGuard(local)
}

// AllowsSender reports whether p may contribute messages to the transition
// under its peer restriction (nil Peers allows any process).
func (t *Transition) AllowsSender(p ProcessID) bool {
	if t.Peers == nil {
		return true
	}
	for _, q := range t.Peers {
		if q == p {
			return true
		}
	}
	return false
}

// validate checks structural well-formedness against a system of n
// processes.
func (t *Transition) validate(n int) error {
	if t.Name == "" {
		return fmt.Errorf("transition of process %d has empty name", t.Proc)
	}
	if t.Proc < 0 || int(t.Proc) >= n {
		return fmt.Errorf("transition %s: process out of range [0,%d)", t, n)
	}
	if t.Quorum < 0 && t.Quorum != AnyQuorum {
		return fmt.Errorf("transition %s: negative quorum", t)
	}
	if (t.Quorum == 0) != (t.MsgType == "") {
		return fmt.Errorf("transition %s: spontaneous transitions (quorum 0) must have empty message type and vice versa", t)
	}
	if t.Peers != nil && t.Quorum > 0 && len(t.Peers) < t.Quorum {
		return fmt.Errorf("transition %s: %d peers cannot satisfy quorum %d", t, len(t.Peers), t.Quorum)
	}
	for _, p := range t.Peers {
		if p < 0 || int(p) >= n {
			return fmt.Errorf("transition %s: peer %d out of range", t, p)
		}
	}
	for _, p := range t.GlobalReads {
		if p < 0 || int(p) >= n {
			return fmt.Errorf("transition %s: global-read process %d out of range", t, p)
		}
	}
	for _, s := range t.Sends {
		if s.Type == "" {
			return fmt.Errorf("transition %s: send spec with empty type", t)
		}
		for _, p := range s.To {
			if p < 0 || int(p) >= n {
				return fmt.Errorf("transition %s: send recipient %d out of range", t, p)
			}
		}
	}
	return nil
}

// PeerSuffix renders a peer set as the double-underscore suffix used for
// refined transition names, e.g. "__1_2" (the paper's msgType__ convention).
func PeerSuffix(peers []ProcessID) string {
	var sb strings.Builder
	sb.WriteString("__")
	for i, p := range peers {
		if i > 0 {
			sb.WriteByte('_')
		}
		sb.WriteString(strconv.Itoa(int(p)))
	}
	return sb.String()
}

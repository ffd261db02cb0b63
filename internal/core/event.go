package core

import (
	"strconv"
	"strings"
)

// Event is one executable step: a transition together with the exact
// message set it consumes (the paper's s --t(X)--> s'). For spontaneous
// transitions Msgs is nil.
type Event struct {
	T    *Transition
	Msgs []Message // sorted by canonical key
}

// Key returns a canonical encoding of the event, unique within a finalized
// protocol (it embeds the transition index and the consumed message keys).
func (e Event) Key() string {
	var sb strings.Builder
	sb.WriteString(strconv.Itoa(e.T.idx))
	for _, m := range e.Msgs {
		sb.WriteByte(',')
		sb.WriteString(m.Key())
	}
	return sb.String()
}

// String renders the event for traces: "proc/name <- {msgs}".
func (e Event) String() string {
	var sb strings.Builder
	sb.WriteString(e.T.String())
	if len(e.Msgs) > 0 {
		sb.WriteString(" <- {")
		for i, m := range e.Msgs {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(m.String())
		}
		sb.WriteByte('}')
	}
	return sb.String()
}

// Senders returns the distinct senders of the consumed messages.
func (e Event) Senders() []ProcessID { return Senders(e.Msgs) }

package core

import (
	"fmt"
	"sync"
)

// AnyQuorum, used as a Transition.Quorum value, selects unrestricted
// subset consumption: every non-empty guard-accepted subset of matching
// pending messages is a separate event. This is the paper's original
// MP-Basset enumeration (§IV-A), exponential in the number of pending
// messages — the cost the exact-quorum specialization avoids.
const AnyQuorum = -1

// maxAnyQuorumPending bounds the powerset enumeration: an AnyQuorum
// transition facing more pending candidates than this indicates a modeling
// error (unbounded message accumulation), and enumeration panics with a
// diagnostic rather than silently exploding.
const maxAnyQuorumPending = 20

// Enabled enumerates every executable event of state s: every pair (t, X)
// such that X consists of exactly t.Quorum messages of t's type from
// t.Quorum distinct allowed senders and t's guard holds (§II-A). Events
// are returned in deterministic order (transition index, then message
// keys).
//
// This is the exact-quorum specialization of MP-Basset's "enabled set of
// messages" computation (§IV-A): instead of enumerating the full powerset
// of pending messages, only sender combinations of the declared quorum size
// are generated. PowersetSize quantifies the cost the paper's unrestricted
// enumeration would pay.
func (p *Protocol) Enabled(s *State) []Event {
	sc := enumPool.Get().(*enumScratch)
	var out []Event
	for _, t := range p.Transitions {
		out = sc.appendEventsFor(out, t, s)
	}
	enumPool.Put(sc)
	return out
}

// EnabledFor enumerates the executable events of a single transition.
func (p *Protocol) EnabledFor(t *Transition, s *State) []Event {
	sc := enumPool.Get().(*enumScratch)
	out := sc.appendEventsFor(nil, t, s)
	enumPool.Put(sc)
	return out
}

// enumScratch is the working memory of one enumeration: it is reused
// across the transitions of an Enabled call and, through enumPool, across
// calls, so enumerating allocates only the events it returns. The buffers
// live on the heap because the candidate set is handed to the guard, an
// indirect call the compiler must assume retains its argument.
type enumScratch struct {
	ms    []Message // matching messages, grouped by sender
	group []int     // group g is ms[group[g]:group[g+1]]
	combo []int     // the chosen groups, ascending
	alt   []int     // the chosen alternative (index into ms) per chosen group
	pick  []Message // the candidate set handed to the guard
}

// enumPool lets concurrent Enabled callers (ParallelBFS workers) each work
// on a scratch of their own.
var enumPool = sync.Pool{New: func() any { return new(enumScratch) }}

func (sc *enumScratch) appendEventsFor(out []Event, t *Transition, s *State) []Event {
	local := s.Locals[t.Proc]
	if t.Spontaneous() {
		if t.guardOK(local, nil) {
			out = append(out, Event{T: t})
		}
		return out
	}
	if !t.LocalGuardOK(local) {
		return out
	}
	if t.Quorum == AnyQuorum {
		sc.ms = s.Msgs.appendMatchingByKey(sc.ms[:0], t.Proc, t.MsgType, t.Peers)
		return sc.appendSubsetEvents(out, t, local)
	}
	sc.ms = s.Msgs.AppendMatching(sc.ms[:0], t.Proc, t.MsgType, t.Peers)
	ms, q := sc.ms, t.Quorum
	sc.group = sc.group[:0]
	for i := range ms {
		if i == 0 || ms[i].From != ms[i-1].From {
			sc.group = append(sc.group, i)
		}
	}
	groups := len(sc.group)
	if groups < q {
		return out
	}
	sc.group = append(sc.group, len(ms))
	group := sc.group
	if cap(sc.combo) < q {
		sc.combo, sc.alt = make([]int, q), make([]int, q)
	}
	if cap(sc.pick) < q {
		sc.pick = make([]Message, q)
	}
	combo, alt, pick := sc.combo[:q], sc.alt[:q], sc.pick[:q]

	// Enumerate every size-q combination of senders in lexicographic
	// order; within a combination every per-sender alternative, the last
	// sender's varying fastest (distinct payloads from the same sender
	// are alternative choices, §II-A non-determinism).
	for d := range combo {
		combo[d] = d
	}
	for {
		for d, g := range combo {
			alt[d] = group[g]
		}
		for {
			for d, i := range alt {
				pick[d] = ms[i]
			}
			sortByKey(pick)
			if t.guardOK(local, pick) {
				out = append(out, Event{T: t, Msgs: append([]Message(nil), pick...)})
			}
			d := q - 1
			for ; d >= 0; d-- {
				if alt[d]++; alt[d] < group[combo[d]+1] {
					break
				}
				alt[d] = group[combo[d]]
			}
			if d < 0 {
				break
			}
		}
		d := q - 1
		for d >= 0 && combo[d] == groups-q+d {
			d--
		}
		if d < 0 {
			return out
		}
		combo[d]++
		for d++; d < q; d++ {
			combo[d] = combo[d-1] + 1
		}
	}
}

// appendSubsetEvents enumerates every non-empty subset of the matching
// pending messages sc.ms, which are in key order (AnyQuorum semantics).
// Subsets are generated in deterministic bitmask order.
func (sc *enumScratch) appendSubsetEvents(out []Event, t *Transition, local LocalState) []Event {
	all := sc.ms
	if len(all) == 0 {
		return out
	}
	if len(all) > maxAnyQuorumPending {
		panic(fmt.Sprintf("core: AnyQuorum transition %s faces %d pending messages (cap %d); bound the model",
			t, len(all), maxAnyQuorumPending))
	}
	if cap(sc.pick) < len(all) {
		sc.pick = make([]Message, len(all))
	}
	for mask := 1; mask < 1<<len(all); mask++ {
		x := sc.pick[:0]
		for i := range all {
			if mask&(1<<i) != 0 {
				x = append(x, all[i])
			}
		}
		if t.guardOK(local, x) {
			out = append(out, Event{T: t, Msgs: append([]Message(nil), x...)})
		}
	}
	return out
}

// StructurallyEnabled reports whether t has at least the quorum of distinct
// allowed senders with pending messages in s, ignoring the guard. Package
// por uses the distinction to pick necessary enabling sets. AnyQuorum
// transitions are structurally enabled once a single candidate is pending.
func (p *Protocol) StructurallyEnabled(t *Transition, s *State) bool {
	q := t.Quorum
	if q == AnyQuorum {
		q = 1
	}
	return s.Msgs.HasMatchingSenders(t.Proc, t.MsgType, t.Peers, q)
}

// PowersetSize returns 2^k capped at maxInt, the number of message subsets
// MP-Basset's unrestricted quorum enumeration inspects for k pending
// messages (§IV-A: "these are 2^3 sets compared to only three messages").
// It exists for the evaluation harness's cost analysis.
func PowersetSize(k int) int {
	if k >= 62 {
		return int(^uint(0) >> 1)
	}
	return 1 << k
}

package dpor

import (
	"time"

	"mpbasset/internal/core"
	"mpbasset/internal/explore"
)

// recordExecution stores the bookkeeping of the event just taken from the
// top frame: its vector clock (program order joined with the clocks of the
// send events of its consumed messages) and sent, the keys of the messages
// it sent (the caller derives them with sentKeys from the bag difference
// to the successor state).
func (e *engine) recordExecution(ev core.Event, sent []string) {
	f := &e.stack[len(e.stack)-1]
	n := e.p.N
	clock := make([]int, n)
	// Program order: the last event of the same process on the path.
	for d := len(e.stack) - 2; d >= 0; d-- {
		g := &e.stack[d]
		if g.clock != nil && g.executed.T.Proc == ev.T.Proc {
			copy(clock, g.clock)
			break
		}
	}
	// Send→consume edges.
	for _, m := range ev.Msgs {
		if cs := e.sendClocks[m.Key()]; len(cs) > 0 {
			join(clock, cs[len(cs)-1])
		}
	}
	clock[ev.T.Proc]++
	f.executed = ev
	f.clock = clock
	f.sent = sent
	for _, k := range f.sent {
		e.sendClocks[k] = append(e.sendClocks[k], clock)
	}
}

// unrecordExecution undoes recordExecution when backtracking past f.
func (e *engine) unrecordExecution(f *frame) {
	if f.clock == nil {
		return
	}
	for _, k := range f.sent {
		cs := e.sendClocks[k]
		if len(cs) <= 1 {
			delete(e.sendClocks, k)
		} else {
			e.sendClocks[k] = cs[:len(cs)-1]
		}
	}
	f.executed = core.Event{}
	f.clock = nil
	f.sent = nil
}

// sentKeys computes the keys of the messages ev added to the bag, in
// ascending order: the successor's bag minus (the predecessor's bag minus
// the consumed set).
func sentKeys(prev, next *core.State, ev core.Event) []string {
	var out []string
	consumed := make(map[string]int, len(ev.Msgs))
	for _, m := range ev.Msgs {
		consumed[m.Key()]++
	}
	next.Msgs.Each(func(m core.Message, n int) {
		k := m.Key()
		before := prev.Msgs.Count(m) - consumed[k]
		if n > before {
			out = append(out, k)
		}
	})
	return out
}

// updateRaces is the heart of DPOR: after deciding to execute ev from the
// top frame, find the latest earlier event ed that is dependent with ev
// and races with it, and schedule a backtrack point at ed's state — ev
// itself if it was already enabled there, otherwise (conservatively)
// everything enabled there. Deeper races surface recursively once the
// reordering is explored, as in Flanagan–Godefroid.
//
// The race check deliberately ignores the receiver's program order: two
// deliveries to one process race whenever the later one's messages were
// already available (its sends not causally after the earlier event) —
// availability, not receive order, decides whether the schedule could have
// been flipped.
func (e *engine) updateRaces(ev core.Event) {
	e.updateRacesFrom(ev, len(e.stack)-2)
}

// updateRacesFrom scans frames from..0 (newest first) for the latest event
// racing with ev and schedules a backtrack point there.
func (e *engine) updateRacesFrom(ev core.Event, from int) {
	avail := e.availClock(ev)
	for d := from; d >= 0; d-- {
		if e.raceAt(ev, avail, d) != raceContinue {
			return
		}
	}
}

// updateRacesAt checks ev against the single frame at index d.
func (e *engine) updateRacesAt(ev core.Event, d int) {
	e.raceAt(ev, e.availClock(ev), d)
}

type raceOutcome int

const (
	raceContinue raceOutcome = iota // independent: keep scanning earlier
	raceOrdered                     // causally ordered: earlier frames were handled before
	raceFound                       // backtrack point added
)

func (e *engine) raceAt(ev core.Event, avail []int, d int) raceOutcome {
	g := &e.stack[d]
	if g.clock == nil {
		return raceContinue
	}
	ed := g.executed
	if !e.a.Dependent(ed.T.Index(), ev.T.Index()) {
		return raceContinue
	}
	if happensBefore(g.clock, ed.T.Proc, avail) {
		// ed is causally before ev's inputs: no race here, but an
		// earlier event may still race with ev.
		return raceContinue
	}
	if _, ok := g.keys[ev.Key()]; ok {
		g.backtrack[ev.Key()] = true
		return raceFound
	}
	// ev was not executable at d (guard or quorum not yet satisfiable
	// there): conservatively schedule everything enabled, as in
	// Flanagan–Godefroid's "add all enabled processes" fallback. (A
	// restriction to ev-dependent events looks tempting but loses
	// interleavings — the generated-protocol validation suite catches it.)
	//lint:nondet-ok order-free set union: every key is inserted and insertion commutes
	for k := range g.keys {
		g.backtrack[k] = true
	}
	return raceFound
}

// availClock is the point in causal time at which ev's inputs became
// available: the join of the send clocks of its consumed messages (the
// zero clock for spontaneous events, which are always "available").
func (e *engine) availClock(ev core.Event) []int {
	clock := make([]int, e.p.N)
	for _, m := range ev.Msgs {
		if cs := e.sendClocks[m.Key()]; len(cs) > 0 {
			join(clock, cs[len(cs)-1])
		}
	}
	return clock
}

func join(dst, src []int) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// happensBefore reports whether the event with the given clock, executed
// by proc, happens-before an event with clock other.
func happensBefore(clock []int, proc core.ProcessID, other []int) bool {
	return other[proc] >= clock[proc]
}

// limits bundles the stop conditions.
type limits struct {
	opts     explore.Options
	start    time.Time
	deadline time.Time
	polls    int
}

func newLimits(opts explore.Options) *limits {
	l := &limits{opts: opts, start: time.Now()}
	if opts.MaxDuration > 0 {
		l.deadline = l.start.Add(opts.MaxDuration)
	}
	return l
}

func (l *limits) exceeded(st *explore.Stats) bool {
	if l.opts.MaxStates > 0 && st.States >= l.opts.MaxStates {
		return true
	}
	if l.opts.MaxDepth > 0 && st.MaxDepth >= l.opts.MaxDepth {
		return true
	}
	if !l.deadline.IsZero() {
		l.polls++
		if l.polls&1023 == 0 && time.Now().After(l.deadline) {
			return true
		}
	}
	return false
}

func (l *limits) elapsed() time.Duration { return time.Since(l.start) }

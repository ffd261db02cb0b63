package explore

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"mpbasset/internal/core"
)

// RenderTrace writes an annotated counterexample: for every step, the
// executed event, the local-state change of the executing process, and the
// messages added to or removed from the bag. It replays the trace, so it
// also re-validates it (an invalid trace yields an error).
//
// Example output for a storage race:
//
//  1. 0/W_START
//     local 0: W0,0,0,0 -> Ww1,0,0,0
//     +sent: 0>1:WRITE{t1v10}, 0>2:WRITE{t1v10}, 0>3:WRITE{t1v10}
func RenderTrace(w io.Writer, p *core.Protocol, trace []Step) error {
	s, err := p.InitialState()
	if err != nil {
		return err
	}
	for i, step := range trace {
		ns, err := p.Execute(s, step.Event)
		if err != nil {
			return fmt.Errorf("render step %d (%s): %w", i+1, step.Event, err)
		}
		fmt.Fprintf(w, "%3d. %s\n", i+1, step.Event)
		proc := step.Event.T.Proc
		before, after := s.Local(proc).Key(), ns.Local(proc).Key()
		if before != after {
			fmt.Fprintf(w, "      local %d: %s -> %s\n", proc, before, after)
		}
		added, removed := bagDiff(s.Msgs, ns.Msgs)
		if len(removed) > 0 {
			fmt.Fprintf(w, "      -consumed: %s\n", strings.Join(removed, ", "))
		}
		if len(added) > 0 {
			fmt.Fprintf(w, "      +sent: %s\n", strings.Join(added, ", "))
		}
		s = ns
	}
	if verr := p.CheckInvariant(s); verr != nil {
		fmt.Fprintf(w, "  => violation: %v\n", verr)
	}
	return nil
}

// bagDiff returns the message keys added to and removed from the bag,
// sorted, with multiplicities rendered as repeats.
func bagDiff(before, after *core.Bag) (added, removed []string) {
	counts := make(map[string]int)
	before.Each(func(m core.Message, n int) { counts[m.Key()] -= n })
	after.Each(func(m core.Message, n int) { counts[m.Key()] += n })
	//lint:nondet-ok diff accumulation commutes; added and removed are sorted below
	for k, d := range counts {
		for i := 0; i < d; i++ {
			added = append(added, k)
		}
		for i := 0; i < -d; i++ {
			removed = append(removed, k)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	return added, removed
}

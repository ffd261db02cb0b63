// The liveness analogue of the ignoring-trap tests: on cyclic graphs the
// stack proviso is what makes SPOR sound for Büchi checking. For safety
// the proviso-free reduction merely postpones the bad state; for liveness
// it is worse — the reduction can omit the accepting region entirely, so a
// proviso-free reduced NDFS would report "live" with full confidence.
// LivenessTrap is the minimal model where that happens, and these tests
// pin both directions: the proviso-free reduced graph provably contains no
// accepting state at all, and the real SPOR NDFS (stack proviso on) finds
// the accepting cycle the reduction tried to hide.
package por

import (
	"testing"

	"mpbasset/internal/core"
	"mpbasset/internal/explore"
	"mpbasset/internal/liveness"
	"mpbasset/internal/mptest"
)

// reducedGraphWithoutProviso exhaustively explores the reduced state graph
// with the proviso disabled (the liveness counterpart of
// reducedBFSWithoutProviso): expander-chosen events only, no promotion
// ever. It returns the number of reachable reduced states and how many of
// them the property accepts. Zero accepting states means ANY Büchi checker
// run over this graph — nested DFS included — must report the property
// live, whatever cycles the graph has.
func reducedGraphWithoutProviso(t *testing.T, p *core.Protocol, prop *liveness.Property, exp *Expander) (states, accepting int) {
	t.Helper()
	init, err := p.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{init.Key(): true}
	if prop.Accept(init) {
		accepting++
	}
	frontier := []*core.State{init}
	for len(frontier) > 0 {
		var next []*core.State
		for _, s := range frontier {
			enabled := p.Enabled(s)
			if len(enabled) == 0 {
				continue
			}
			for _, ev := range exp.Expand(s, enabled, noopProviso{}) {
				ns, err := p.Execute(s, ev)
				if err != nil {
					t.Fatal(err)
				}
				key := ns.Key()
				if seen[key] {
					continue
				}
				seen[key] = true
				if prop.Accept(ns) {
					accepting++
				}
				next = append(next, ns)
			}
		}
		frontier = next
	}
	return len(seen), accepting
}

// TestLivenessTrapReducedGraphWithoutProvisoHasNoAcceptingState proves the
// unsoundness the trap is built around: the proviso-free reduced graph is
// exactly the ring cycle at rounds 0 — no accepting state is reachable in
// it, so a proviso-free reduced NDFS would wrongly verify the property.
// The oracle on the full graph confirms the property is in fact violated.
func TestLivenessTrapReducedGraphWithoutProvisoHasNoAcceptingState(t *testing.T) {
	for _, ring := range []int{2, 3, 4, 6} {
		p, prop, err := mptest.LivenessTrap(ring)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := NewExpander(p)
		if err != nil {
			t.Fatal(err)
		}
		states, accepting := reducedGraphWithoutProviso(t, p, prop, exp)
		if accepting != 0 {
			t.Errorf("ring %d: proviso-free reduced graph reaches %d accepting states — the trap no longer traps", ring, accepting)
		}
		if states != ring {
			t.Errorf("ring %d: proviso-free reduced graph has %d states, want exactly the %d-state token cycle", ring, states, ring)
		}
		ores, err := liveness.Oracle(p, prop, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !ores.Violated || ores.Limited {
			t.Errorf("ring %d: oracle violated=%v limited=%v — the property should be genuinely violated", ring, ores.Violated, ores.Limited)
		}
	}
}

// TestLivenessTrapSPORNDFSFindsCycle is the positive direction: the real
// engine (stack proviso on) must find the accepting cycle under
// reduction, with the proviso firing, and the lasso must replay.
func TestLivenessTrapSPORNDFSFindsCycle(t *testing.T) {
	for _, ring := range []int{2, 3, 4, 6} {
		p, prop, err := mptest.LivenessTrap(ring)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := NewExpander(p)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := explore.NDFS(p, explore.Options{Expander: exp, Property: prop})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Verdict != explore.VerdictViolated {
			t.Fatalf("ring %d: SPOR NDFS verdict %s, want the accepting cycle", ring, ref.Verdict)
		}
		if ref.Stats.ProvisoExpansions == 0 {
			t.Errorf("ring %d: violation found without the proviso firing — the trap is not exercising C3", ring)
		}
		if _, err := explore.ReplayLasso(p, prop, ref.Trace, ref.CycleLen, ref.Stutter, nil); err != nil {
			t.Errorf("ring %d: lasso does not replay: %v", ring, err)
		}
	}
}

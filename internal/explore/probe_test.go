// Differential tests of the successor probe: DFS and BFS step each chosen
// event into a reused buffer, ask the store whether it already holds the
// successor's key, and keep only the successors it does not hold. Whatever
// the probe drops, the searches must report exactly what they report when
// every successor is kept.
package explore_test

import (
	"strconv"
	"testing"
	"time"

	"mpbasset/internal/core"
	"mpbasset/internal/explore"
	"mpbasset/internal/mptest"
	"mpbasset/internal/por"
	"mpbasset/internal/protocols/storage"
	"mpbasset/internal/symmetry"
)

// hiddenHas passes Seen and Len through and hides Has, so DFS and BFS keep
// every successor they compute.
type hiddenHas struct{ explore.Store }

// probeCanon is one Canon configuration of the probe differential. newCanon
// returns the hook for one run (nil for the default key) and a function
// that turns the run's trace keys into full canonical keys; replayCanon is
// what a trace with those keys replays under.
type probeCanon struct {
	name        string
	newCanon    func() (canon func(*core.State) string, expand func([]explore.Step) error)
	replayCanon func(*core.State) string
}

func probeCanons(t *testing.T, n int, roles [][]core.ProcessID) []probeCanon {
	t.Helper()
	noExpand := func([]explore.Step) error { return nil }
	canons := []probeCanon{
		{name: "default", newCanon: func() (func(*core.State) string, func([]explore.Step) error) { return nil, noExpand }},
		{name: "collapse", newCanon: func() (func(*core.State) string, func([]explore.Step) error) {
			c := explore.NewCollapser()
			return c.Canon, c.ExpandTrace
		}},
	}
	if roles != nil {
		sym, err := symmetry.New(n, roles)
		if err != nil {
			t.Fatal(err)
		}
		canons = append(canons, probeCanon{
			name:        "symmetry",
			newCanon:    func() (func(*core.State) string, func([]explore.Step) error) { return sym.Canon, noExpand },
			replayCanon: sym.Canon,
		})
	}
	return canons
}

// TestSuccessorProbeDifferential runs DFS and BFS with the probe (over a
// HasStore) and without it (over the same store with Has hidden) on the
// suite models and on generated protocols, unreduced and SPOR-reduced, with
// the default, collapse and symmetry canons. Verdict, statistics and trace
// must be identical, and every counterexample must replay. Reduced BFS is
// the exception to hiding Has, since its queue proviso needs the probe too:
// there the reference is ParallelBFS with one worker, which keeps every
// successor and is held bit-identical to BFS by its own differential.
func TestSuccessorProbeDifferential(t *testing.T) {
	models := suiteModelsWithRoles(t)
	for _, seed := range []int64{1, 3, 7} {
		p, err := mptest.Random(mptest.GenConfig{Seed: seed, MaxProcs: 3, Quorums: true, Cycles: true, RingSize: 3, CyclePriority: 3, Threshold: 2})
		if err != nil {
			t.Fatal(err)
		}
		models["random-"+strconv.FormatInt(seed, 10)] = suiteModel{p: p}
	}
	keepAllBFS := func(p *core.Protocol, xo explore.Options) (*explore.Result, error) {
		xo.Workers = 1
		return explore.ParallelBFS(p, xo)
	}
	for name, m := range models {
		for _, reduced := range []bool{false, true} {
			xo := explore.Options{TrackTrace: true, MaxStates: 3000, MaxDuration: time.Minute}
			mode := "unreduced"
			if reduced {
				exp, err := por.NewExpander(m.p)
				if err != nil {
					t.Fatal(err)
				}
				xo.Expander, mode = exp, "spor"
			}
			for _, c := range probeCanons(t, m.p.N, m.roles) {
				for _, eng := range []diffEngine{{"DFS", explore.DFS, true}, {"BFS", explore.BFS, true}} {
					label := name + "/" + mode + "/" + c.name + "/" + eng.name
					run := func(engine func(*core.Protocol, explore.Options) (*explore.Result, error), hide bool) *explore.Result {
						o := xo
						o.Store = explore.NewHashStore()
						if hide {
							o.Store = hiddenHas{o.Store}
						}
						var expand func([]explore.Step) error
						o.Canon, expand = c.newCanon()
						res, err := engine(m.p, o)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if err := expand(res.Trace); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						return res
					}
					got := run(eng.run, false)
					var want *explore.Result
					if reduced && eng.name == "BFS" {
						want = run(keepAllBFS, false)
					} else {
						want = run(eng.run, true)
					}
					requireSameResult(t, label, got, want)
					if got.Verdict == explore.VerdictViolated {
						if _, err := explore.ReplayViolation(m.p, got.Trace, c.replayCanon); err != nil {
							t.Errorf("%s: counterexample does not replay: %v", label, err)
						}
					}
				}
			}
		}
	}
}

// countingHas counts the successors DFS keeps: one per Has answered
// false.
type countingHas struct {
	*explore.HashStore
	probes, kept int
}

func (c *countingHas) Has(key string) bool {
	c.probes++
	ok := c.HashStore.Has(key)
	if !ok {
		c.kept++
	}
	return ok
}

// TestSuccessorProbeKeepsOnlyUnseen counts what the probe saves on the
// benchmark's store-bound workload: unreduced DFS on RegularStorage(4,1)
// single-message, capped at 100 000 states, computes 532 840 successors,
// and five in six of them are already visited when their parent is
// expanded. Only the others may be kept.
func TestSuccessorProbeKeepsOnlyUnseen(t *testing.T) {
	p, err := storage.New(storage.Config{Objects: 4, Readers: 1, Model: storage.ModelSingle})
	if err != nil {
		t.Fatal(err)
	}
	store := &countingHas{HashStore: explore.NewHashStore()}
	res, err := explore.DFS(p, explore.Options{Store: store, MaxStates: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != explore.VerdictLimit || res.Stats.States != 100000 || res.Stats.Events != 532840 {
		t.Fatalf("verdict %s, %d states, %d events; want Limit, 100000, 532840", res.Verdict, res.Stats.States, res.Stats.Events)
	}
	if store.probes < res.Stats.Events {
		t.Errorf("%d successors probed, fewer than the %d events counted", store.probes, res.Stats.Events)
	}
	if store.kept > 101000 {
		t.Errorf("%d of %d successors kept, want at most 101000", store.kept, store.probes)
	}
	t.Logf("%d of %d successors kept", store.kept, store.probes)
}

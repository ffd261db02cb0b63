// Differential tests of the spill-to-disk store against the in-memory
// stores over the bundled protocol suite. These live in the external test
// package so they can drive the POR expander (package por imports
// explore); the white-box store tests stay in spill_test.go.
package explore_test

import (
	"testing"
	"time"

	"mpbasset/internal/core"
	"mpbasset/internal/eval"
	"mpbasset/internal/explore"
	"mpbasset/internal/mptest"
	"mpbasset/internal/por"
	"mpbasset/internal/protocols/multicast"
	"mpbasset/internal/protocols/paxos"
	"mpbasset/internal/protocols/storage"
)

// tinySpill returns a SpillStore whose hot tier holds only a few entries
// (or, with budget 1, a single one), so even small state spaces force
// multiple spills and merges.
func tinySpill(t testing.TB, budget int64) *explore.SpillStore {
	t.Helper()
	s, err := explore.NewSpillStore(explore.SpillConfig{BudgetBytes: budget, Dir: t.TempDir(), MergeRuns: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("SpillStore.Close: %v", err)
		}
	})
	return s
}

// maskSpill zeroes the Stats fields excluded from the bit-identical
// guarantee — eval.VolatileStatsFields is the canonical list (Duration
// plus the spill-activity counters; the compared runs differ exactly in
// whether a disk tier exists).
func maskSpill(st explore.Stats) explore.Stats {
	eval.MaskVolatileStats(&st)
	return st
}

// diffEngine is one engine configuration of the differential matrix.
// strict marks engines whose stats and traces are bit-identical to their
// family's reference (sequential BFS for the BFS engines); DFS explores the
// same states as BFS at engine-specific depths and is held to looser
// comparisons against it.
type diffEngine struct {
	name   string
	run    func(*core.Protocol, explore.Options) (*explore.Result, error)
	strict bool
}

func diffEngines() []diffEngine {
	parallel := func(workers, chunk, batch int) func(*core.Protocol, explore.Options) (*explore.Result, error) {
		return func(p *core.Protocol, xo explore.Options) (*explore.Result, error) {
			xo.Workers = workers
			xo.ChunkSize = chunk
			xo.BatchSize = batch
			return explore.ParallelBFS(p, xo)
		}
	}
	return []diffEngine{
		{"BFS", explore.BFS, true},
		{"DFS", explore.DFS, false},
		{"ParallelBFS-1", parallel(1, 0, 0), true},
		{"ParallelBFS-2", parallel(2, 0, 0), true},
		{"ParallelBFS-8", parallel(8, 0, 0), true},
		{"ParallelBFS-8-chunk1-batch1", parallel(8, 1, 1), true},
	}
}

// suiteModels are the bundled protocols the differential guarantee is
// checked on — the models the paper's tables measure (test-sized
// settings), plus the ignoring-proviso trap. MaxStates caps on both sides
// of each comparison keep the unreduced state spaces test-sized without
// breaking bit-identity.
func suiteModels(t *testing.T) map[string]*core.Protocol {
	t.Helper()
	models := map[string]*core.Protocol{}
	for name, m := range suiteModelsWithRoles(t) {
		models[name] = m.p
	}
	return models
}

// suiteModel is a suite protocol with its symmetric process roles (nil for
// the trap, which has none).
type suiteModel struct {
	p     *core.Protocol
	roles [][]core.ProcessID
}

// suiteModelsWithRoles is suiteModels with each model's roles, for the
// tests that also run the symmetry canon.
func suiteModelsWithRoles(t *testing.T) map[string]suiteModel {
	t.Helper()
	models := map[string]suiteModel{}
	add := func(name string, p *core.Protocol, err error, roles [][]core.ProcessID) {
		if err != nil {
			t.Fatal(err)
		}
		models[name] = suiteModel{p, roles}
	}
	pc := paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1}
	px, err := paxos.New(pc)
	add("paxos-231", px, err, pc.Roles())
	fc := paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1, Faulty: true}
	fx, err := paxos.New(fc)
	add("faulty-paxos-231", fx, err, fc.Roles())
	mcc := multicast.Config{HonestReceivers: 2, HonestInitiators: 1, ByzantineInitiators: 1}
	mc, err := multicast.New(mcc)
	add("multicast-2101", mc, err, mcc.Roles())
	sc := storage.Config{Objects: 3, Readers: 1}
	st, err := storage.New(sc)
	add("storage-31", st, err, sc.Roles())
	wc := storage.Config{Objects: 3, Readers: 2, WrongRegularity: true}
	ws, err := storage.New(wc)
	add("storage-32-wrong", ws, err, wc.Roles())
	trap, err := mptest.IgnoringTrap(4)
	add("ignoring-trap-4", trap, err, nil)
	return models
}

// TestSpillStoreDifferentialOnSuiteModels is the spill tier's acceptance
// check on the bundled models: for every suite protocol and every engine
// (BFS, DFS, ParallelBFS at 1/2/8 workers on both insert paths), a run
// over a SpillStore with an
// artificially tiny budget (forcing multiple spills and merges) must be
// bit-identical — verdict, statistics (spill activity masked) and trace —
// to the same engine over the in-memory fingerprint store, both unreduced
// and SPOR-reduced.
func TestSpillStoreDifferentialOnSuiteModels(t *testing.T) {
	for name, p := range suiteModels(t) {
		// Small models (the trap stops a step or two in) get a one-entry
		// hot tier so that even they spill; the budget is identical on
		// both sides of nothing — only the spill arm has one — so it
		// cannot affect the comparison.
		budget := int64(1024)
		if name == "ignoring-trap-4" {
			budget = 1
		}
		for _, reducedSearch := range []bool{false, true} {
			xo := explore.Options{TrackTrace: true, MaxStates: 4000, MaxDuration: time.Minute}
			label := name + "/unreduced"
			if reducedSearch {
				exp, err := por.NewExpander(p)
				if err != nil {
					t.Fatal(err)
				}
				xo.Expander = exp
				label = name + "/spor"
			}
			for _, eng := range diffEngines() {
				t.Run(label+"/"+eng.name, func(t *testing.T) {
					mem := xo
					mem.Store = explore.NewHashStore()
					want, err := eng.run(p, mem)
					if err != nil {
						t.Fatal(err)
					}
					sp := xo
					sp.Store = tinySpill(t, budget)
					got, err := eng.run(p, sp)
					if err != nil {
						t.Fatal(err)
					}
					if got.Verdict != want.Verdict {
						t.Errorf("verdict %s over spill, %s in memory", got.Verdict, want.Verdict)
					}
					if gs, ws := maskSpill(got.Stats), maskSpill(want.Stats); gs != ws {
						t.Errorf("stats %+v over spill, %+v in memory", gs, ws)
					}
					if got.Stats.SpillRuns == 0 {
						t.Error("tiny budget never spilled — the differential run does not exercise the disk tier")
					}
					if len(got.Trace) != len(want.Trace) {
						t.Fatalf("trace length %d over spill, %d in memory", len(got.Trace), len(want.Trace))
					}
					for i := range got.Trace {
						if got.Trace[i].StateKey != want.Trace[i].StateKey ||
							got.Trace[i].Event.Key() != want.Trace[i].Event.Key() {
							t.Fatalf("trace step %d: %+v over spill, %+v in memory", i, got.Trace[i], want.Trace[i])
						}
					}
					if got.Verdict == explore.VerdictViolated {
						if _, err := explore.ReplayViolation(p, got.Trace, nil); err != nil {
							t.Errorf("spill-backed counterexample does not replay: %v", err)
						}
					}
				})
			}
		}
	}
}

// Differential tests of ParallelBFS against sequential BFS on the bundled
// suite models: the engine's guarantee is bit-identical verdicts,
// statistics and counterexample traces for any worker count, over the
// in-memory, sharded and spill-backed stores, unreduced and SPOR-reduced —
// including runs cut by MaxStates or MaxDepth, whose outcome depends on the
// exact visit order.
package explore_test

import (
	"strconv"
	"testing"
	"time"

	"mpbasset/internal/explore"
	"mpbasset/internal/mptest"
	"mpbasset/internal/por"
)

// requireSameResult asserts got is bit-identical to want: verdict, stats
// (Duration and spill activity masked), and the full trace.
func requireSameResult(t *testing.T, label string, got, want *explore.Result) {
	t.Helper()
	if got.Verdict != want.Verdict {
		t.Errorf("%s: verdict %s, sequential BFS %s", label, got.Verdict, want.Verdict)
		return
	}
	if gs, ws := maskSpill(got.Stats), maskSpill(want.Stats); gs != ws {
		t.Errorf("%s: stats %+v, sequential BFS %+v", label, gs, ws)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Errorf("%s: trace length %d, sequential BFS %d", label, len(got.Trace), len(want.Trace))
		return
	}
	for i := range got.Trace {
		if !stepEqual(got.Trace[i], want.Trace[i]) {
			t.Errorf("%s: trace step %d = %+v, sequential BFS %+v", label, i, got.Trace[i], want.Trace[i])
			return
		}
	}
}

// TestParallelBFSDifferentialOnSuiteModels holds the one parallel engine
// to its sequential twin on the paper's models: for every suite protocol,
// worker count in {1,2,4,8}, store (in-memory fingerprint store behind the
// mutex fallback, the sharded store the facade picks for parallel BFS, and
// spill with a tiny budget) and reduction (unreduced vs SPOR), ParallelBFS
// must be bit-identical to sequential BFS over the in-memory store.
func TestParallelBFSDifferentialOnSuiteModels(t *testing.T) {
	for name, p := range suiteModels(t) {
		// The trap stops a step or two in; a one-entry hot tier makes even
		// it spill (mirroring the spill differential).
		budget := int64(512)
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
			seq := xo
			seq.Store = explore.NewHashStore()
			want, err := explore.BFS(p, seq)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				for _, store := range []string{"mem", "sharded", "spill"} {
					t.Run(label+"/"+store+"/w"+strconv.Itoa(workers), func(t *testing.T) {
						run := xo
						run.Workers = workers
						switch store {
						case "spill":
							run.Store = tinySpill(t, budget)
						case "sharded":
							run.Store = explore.NewShardedHashStore()
						default:
							run.Store = explore.NewHashStore()
						}
						got, err := explore.ParallelBFS(p, run)
						if err != nil {
							t.Fatal(err)
						}
						requireSameResult(t, label, got, want)
						if store == "spill" && got.Stats.SpillRuns == 0 {
							t.Error("tiny budget never spilled — the run does not exercise the disk tier")
						}
						if got.Verdict == explore.VerdictViolated {
							if _, err := explore.ReplayViolation(p, got.Trace, nil); err != nil {
								t.Errorf("counterexample does not replay: %v", err)
							}
						}
					})
				}
			}
		}
	}
}

// TestParallelBFSLimitedRunsMatchSequential pins the hard case: a
// MaxStates or MaxDepth bound cuts the search mid-level, so the limited
// result is a pure function of the visit order — which ParallelBFS must
// reproduce exactly whatever the workers were doing.
func TestParallelBFSLimitedRunsMatchSequential(t *testing.T) {
	p, err := mptest.Random(mptest.GenConfig{Seed: 7, MaxProcs: 3, Quorums: true, Cycles: true, Threshold: 1, RingSize: 3, CyclePriority: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, bound := range []explore.Options{
		{MaxStates: 10},
		{MaxStates: 57},
		{MaxDepth: 3},
		{MaxDepth: 7, MaxStates: 200},
	} {
		want, err := explore.BFS(p, bound)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, 8} {
			run := bound
			run.Workers = workers
			got, err := explore.ParallelBFS(p, run)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "limited", got, want)
		}
	}
}

// Differential tests of the frontier-parallel BFS engine: for every
// bundled protocol and every reduction combination, ParallelBFS must
// report results identical to sequential BFS for any worker count, and
// must agree with DFS on violation reachability. The tests run under
// go test -race in CI, which also exercises the engine's synchronization.
package explore_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mpbasset/internal/cli"
	"mpbasset/internal/core"
	"mpbasset/internal/eval"
	"mpbasset/internal/explore"
	"mpbasset/internal/por"
	"mpbasset/internal/refine"
	"mpbasset/internal/symmetry"
)

// protoCase is one bundled-protocol instance, sized so the full matrix
// stays fast under the race detector while still covering both verified
// and violating models.
type protoCase struct {
	name     string
	protocol string
	setting  string
	wrong    bool
}

func protoCases() []protoCase {
	return []protoCase{
		{"Paxos_221", "paxos", "2,2,1", false},
		{"FaultyPaxos_221", "faulty-paxos", "2,2,1", false},
		{"Multicast_3011", "multicast", "3,0,1,1", false},
		{"Multicast_2121", "multicast", "2,1,2,1", false},
		{"Storage_21", "storage", "2,1", false},
		{"Storage_22_wrong", "storage", "2,2", true},
	}
}

// reduction is one of the reduction combinations of the differential
// matrix. build returns the (possibly refined) protocol plus the search
// options carrying the expander/canon hooks.
type reduction struct {
	name  string
	build func(t *testing.T, pc protoCase) (*core.Protocol, explore.Options)
}

func buildProto(t *testing.T, pc protoCase) (*core.Protocol, [][]core.ProcessID) {
	t.Helper()
	p, roles, err := cli.BuildProtocol(pc.protocol, pc.setting, "", pc.wrong)
	if err != nil {
		t.Fatal(err)
	}
	return p, roles
}

func withSPOR(t *testing.T, p *core.Protocol, xo explore.Options) explore.Options {
	t.Helper()
	exp, err := por.NewExpander(p)
	if err != nil {
		t.Fatal(err)
	}
	xo.Expander = exp
	return xo
}

func reductions() []reduction {
	return []reduction{
		{"Full", func(t *testing.T, pc protoCase) (*core.Protocol, explore.Options) {
			p, _ := buildProto(t, pc)
			return p, explore.Options{}
		}},
		{"SPOR", func(t *testing.T, pc protoCase) (*core.Protocol, explore.Options) {
			p, _ := buildProto(t, pc)
			return p, withSPOR(t, p, explore.Options{})
		}},
		{"SPOR_Symmetry", func(t *testing.T, pc protoCase) (*core.Protocol, explore.Options) {
			p, roles := buildProto(t, pc)
			canon, err := symmetry.New(p.N, roles)
			if err != nil {
				t.Fatal(err)
			}
			return p, withSPOR(t, p, explore.Options{Canon: canon.Canon})
		}},
		{"Refined", func(t *testing.T, pc protoCase) (*core.Protocol, explore.Options) {
			p, _ := buildProto(t, pc)
			sp, err := refine.Split(p, refine.Combined)
			if err != nil {
				t.Fatal(err)
			}
			return sp, withSPOR(t, sp, explore.Options{})
		}},
	}
}

// statsEqual compares every field covered by the determinism guarantee
// (eval.VolatileStatsFields — wall-clock and spill activity — masked).
func statsEqual(a, b explore.Stats) bool {
	return eval.StatsEqualModuloVolatile(a, b)
}

// stepEqual compares trace steps by event identity and reached state key
// (core.Event holds slices and is not directly comparable).
func stepEqual(a, b explore.Step) bool {
	return a.StateKey == b.StateKey && a.Event.Key() == b.Event.Key()
}

// parallelConfig is one scheduler configuration of the differential
// matrix: worker count plus the work-stealing/batching knobs.
type parallelConfig struct {
	name    string
	workers int
	chunk   int
	batch   int
}

// parallelConfigs covers the edge settings of the chunking/batching knobs:
// adaptive defaults, chunk and batch forced to 1 (one node per claim,
// maximum stealing and per-key inserts), and awkward odd sizes.
func parallelConfigs() []parallelConfig {
	return []parallelConfig{
		{"workers-1", 1, 0, 0},
		{"workers-2", 2, 0, 0},
		{"workers-8", 8, 0, 0},
		{"workers-8-chunk1-batch1", 8, 1, 1},
		{"workers-3-chunk5-batch3", 3, 5, 3},
		{"workers-4-chunk1-batch1", 4, 1, 1},
	}
}

// TestParallelBFSMatchesSequentialBFS is the differential suite: for every
// bundled protocol, reduction combination and scheduler configuration
// (assorted chunk/batch settings down to one node per claim and per-key
// inserts), ParallelBFS must report the identical verdict, statistics and
// counterexample trace as sequential BFS.
func TestParallelBFSMatchesSequentialBFS(t *testing.T) {
	for _, pc := range protoCases() {
		for _, red := range reductions() {
			t.Run(pc.name+"/"+red.name, func(t *testing.T) {
				p, xo := red.build(t, pc)
				xo.TrackTrace = true
				xo.MaxDuration = 2 * time.Minute
				seq, err := explore.BFS(p, xo)
				if err != nil {
					t.Fatal(err)
				}
				for _, cfg := range parallelConfigs() {
					pxo := xo
					pxo.Workers = cfg.workers
					pxo.ChunkSize = cfg.chunk
					pxo.BatchSize = cfg.batch
					par, err := explore.ParallelBFS(p, pxo)
					if err != nil {
						t.Fatalf("%s: %v", cfg.name, err)
					}
					if par.Verdict != seq.Verdict {
						t.Errorf("%s: verdict %s, sequential %s", cfg.name, par.Verdict, seq.Verdict)
					}
					if par.Stats.States != seq.Stats.States {
						t.Errorf("%s: states %d, sequential %d", cfg.name, par.Stats.States, seq.Stats.States)
					}
					if !statsEqual(par.Stats, seq.Stats) {
						t.Errorf("%s: stats %+v, sequential %+v", cfg.name, par.Stats, seq.Stats)
					}
					if (par.Violation != nil) != (seq.Violation != nil) {
						t.Errorf("%s: violation %v, sequential %v", cfg.name, par.Violation, seq.Violation)
					}
					if len(par.Trace) != len(seq.Trace) {
						t.Errorf("%s: trace length %d, sequential %d", cfg.name, len(par.Trace), len(seq.Trace))
					} else {
						for i := range par.Trace {
							if !stepEqual(par.Trace[i], seq.Trace[i]) {
								t.Errorf("%s: trace step %d = %+v, sequential %+v", cfg.name, i, par.Trace[i], seq.Trace[i])
								break
							}
						}
					}
					if par.Verdict == explore.VerdictViolated {
						if _, err := explore.ReplayViolation(p, par.Trace, xo.Canon); err != nil {
							t.Errorf("%s: counterexample does not replay: %v", cfg.name, err)
						}
					}
				}
			})
		}
	}
}

// TestParallelBFSViolationReachabilityMatchesDFS cross-checks the engines:
// ParallelBFS must find a violation exactly when DFS does, for every
// protocol and reduction combination.
func TestParallelBFSViolationReachabilityMatchesDFS(t *testing.T) {
	for _, pc := range protoCases() {
		for _, red := range reductions() {
			t.Run(pc.name+"/"+red.name, func(t *testing.T) {
				p, xo := red.build(t, pc)
				xo.MaxDuration = 2 * time.Minute
				dfs, err := explore.DFS(p, xo)
				if err != nil {
					t.Fatal(err)
				}
				pxo := xo
				pxo.Workers = 4
				par, err := explore.ParallelBFS(p, pxo)
				if err != nil {
					t.Fatal(err)
				}
				if dfsViolated, parViolated := dfs.Verdict == explore.VerdictViolated, par.Verdict == explore.VerdictViolated; dfsViolated != parViolated {
					t.Errorf("violation reachability: DFS %v (%s), ParallelBFS %v (%s)",
						dfsViolated, dfs.Verdict, parViolated, par.Verdict)
				}
			})
		}
	}
}

// TestParallelBFSPaperPaxos is the acceptance check on the paper's Paxos
// instance (2,3,1): ≥4 workers must explore the SPOR-reduced model to the
// same state count and verdict as sequential BFS.
func TestParallelBFSPaperPaxos(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale Paxos skipped in -short mode")
	}
	p, _, err := cli.BuildProtocol("paxos", "2,3,1", "", false)
	if err != nil {
		t.Fatal(err)
	}
	xo := withSPOR(t, p, explore.Options{MaxDuration: 5 * time.Minute})
	seq, err := explore.BFS(p, xo)
	if err != nil {
		t.Fatal(err)
	}
	xo.Workers = 4
	xo.Store = explore.NewShardedHashStore()
	par, err := explore.ParallelBFS(p, xo)
	if err != nil {
		t.Fatal(err)
	}
	if par.Verdict != seq.Verdict || par.Stats.States != seq.Stats.States {
		t.Errorf("parallel: %s %d states; sequential: %s %d states",
			par.Verdict, par.Stats.States, seq.Verdict, seq.Stats.States)
	}
	if seq.Verdict != explore.VerdictVerified {
		t.Errorf("Paxos (2,3,1) should verify, got %s", seq.Verdict)
	}
}

// TestParallelBFSDeterministic runs the same search repeatedly with the
// maximum worker count and demands bit-identical results — the per-level
// deterministic merge must hide all scheduling nondeterminism.
func TestParallelBFSDeterministic(t *testing.T) {
	p, _, err := cli.BuildProtocol("storage", "2,2", "", true)
	if err != nil {
		t.Fatal(err)
	}
	var base *explore.Result
	for i := 0; i < 5; i++ {
		res, err := explore.ParallelBFS(p, explore.Options{Workers: 8, TrackTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Verdict != base.Verdict || !statsEqual(res.Stats, base.Stats) || len(res.Trace) != len(base.Trace) {
			t.Fatalf("run %d differs: %s %+v (trace %d) vs %s %+v (trace %d)",
				i, res.Verdict, res.Stats, len(res.Trace), base.Verdict, base.Stats, len(base.Trace))
		}
		for j := range res.Trace {
			if !stepEqual(res.Trace[j], base.Trace[j]) {
				t.Fatalf("run %d: trace step %d differs", i, j)
			}
		}
	}
}

// TestParallelBFSMaxStates checks the limiter semantics in parallel mode:
// the result must be marked limited, the reported state count must equal
// the bound exactly (the merge commits states in sequential order and
// stops at the bound), and the backing store may overshoot by at most the
// successors of one frontier.
func TestParallelBFSMaxStates(t *testing.T) {
	p, _, err := cli.BuildProtocol("paxos", "2,3,1", "", false)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 1000
	store := explore.NewShardedExactStore()
	res, err := explore.ParallelBFS(p, explore.Options{Workers: 8, MaxStates: bound, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != explore.VerdictLimit {
		t.Errorf("verdict = %s, want Limit", res.Verdict)
	}
	if res.Stats.States != bound {
		t.Errorf("states = %d, want exactly %d", res.Stats.States, bound)
	}
	// Sequential BFS under the same bound must agree on everything.
	seq, err := explore.BFS(p, explore.Options{MaxStates: bound})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Verdict != res.Verdict || !statsEqual(seq.Stats, res.Stats) {
		t.Errorf("parallel limited stats %+v, sequential %+v", res.Stats, seq.Stats)
	}
	// The store may hold states beyond the bound (inserted by workers whose
	// level was cut short by the limit) but only up to one frontier's worth:
	// far less than the full 25k+ state space.
	if store.Len() < bound {
		t.Errorf("store holds %d states, fewer than the %d reported", store.Len(), bound)
	}
	if store.Len() > 10*bound {
		t.Errorf("store holds %d states, more than one frontier beyond the bound of %d", store.Len(), bound)
	}
}

// TestParallelBFSMaxDuration checks that a tiny time budget marks the
// result limited rather than verified.
func TestParallelBFSMaxDuration(t *testing.T) {
	p, _, err := cli.BuildProtocol("paxos", "2,3,1", "", false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := explore.ParallelBFS(p, explore.Options{Workers: 4, MaxDuration: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != explore.VerdictLimit {
		t.Errorf("verdict = %s, want Limit", res.Verdict)
	}
}

// TestParallelBFSTraceReplay is the counterexample regression test: a
// violation found in parallel must carry a trace that replays from the
// initial state to a violating state, and the trace must be the sequential
// engine's, step for step.
func TestParallelBFSTraceReplay(t *testing.T) {
	for _, pc := range []protoCase{
		{"FaultyPaxos_221", "faulty-paxos", "2,2,1", false},
		{"Storage_22_wrong", "storage", "2,2", true},
		{"Multicast_2121", "multicast", "2,1,2,1", false},
	} {
		t.Run(pc.name, func(t *testing.T) {
			p, _ := buildProto(t, pc)
			res, err := explore.ParallelBFS(p, explore.Options{Workers: 8, TrackTrace: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != explore.VerdictViolated {
				t.Fatalf("verdict = %s, want CE", res.Verdict)
			}
			if len(res.Trace) == 0 {
				t.Fatal("violated verdict with empty trace")
			}
			st, err := explore.ReplayViolation(p, res.Trace, nil)
			if err != nil {
				t.Fatalf("counterexample does not replay: %v", err)
			}
			if st == nil {
				t.Fatal("replay returned no state")
			}
			seq, err := explore.BFS(p, explore.Options{TrackTrace: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(seq.Trace) != len(res.Trace) {
				t.Fatalf("trace length %d, sequential %d", len(res.Trace), len(seq.Trace))
			}
			for i := range res.Trace {
				if !stepEqual(res.Trace[i], seq.Trace[i]) {
					t.Errorf("trace step %d = %+v, sequential %+v", i, res.Trace[i], seq.Trace[i])
				}
			}
		})
	}
}

// TestPrePopulatedStoreAgreement pins the States semantics across all
// three stateful engines: Stats.States counts states discovered by the
// run, so a caller-supplied store already holding the whole state space
// must yield States == 1 (just the root), all successors as revisits, and
// must not trip MaxStates early — identically in BFS, DFS and ParallelBFS.
func TestPrePopulatedStoreAgreement(t *testing.T) {
	for _, pc := range []protoCase{
		{"Storage_21", "storage", "2,1", false},
		{"Paxos_221", "paxos", "2,2,1", false},
	} {
		t.Run(pc.name, func(t *testing.T) {
			p, _ := buildProto(t, pc)
			warm := func(st explore.Store) {
				if _, err := explore.BFS(p, explore.Options{Store: st}); err != nil {
					t.Fatal(err)
				}
			}
			type engine struct {
				name  string
				store explore.Store
				run   func(explore.Options) (*explore.Result, error)
			}
			engines := []engine{
				{"BFS", explore.NewExactStore(), func(xo explore.Options) (*explore.Result, error) { return explore.BFS(p, xo) }},
				{"DFS", explore.NewExactStore(), func(xo explore.Options) (*explore.Result, error) { return explore.DFS(p, xo) }},
				{"ParallelBFS", explore.NewShardedExactStore(), func(xo explore.Options) (*explore.Result, error) {
					xo.Workers = 4
					return explore.ParallelBFS(p, xo)
				}},
			}
			var results []*explore.Result
			for _, eng := range engines {
				warm(eng.store)
				full := eng.store.Len()
				// MaxStates below the full space: a run that counted the
				// pre-populated store would report VerdictLimit here.
				res, err := eng.run(explore.Options{Store: eng.store, MaxStates: full / 2})
				if err != nil {
					t.Fatalf("%s: %v", eng.name, err)
				}
				if res.Stats.States != 1 {
					t.Errorf("%s: states = %d, want 1 (all states pre-populated)", eng.name, res.Stats.States)
				}
				if res.Verdict != explore.VerdictVerified {
					t.Errorf("%s: verdict = %s, want Verified (pre-populated store must not trip MaxStates)", eng.name, res.Verdict)
				}
				if res.Stats.Revisits == 0 {
					t.Errorf("%s: no revisits reported against a fully warmed store", eng.name)
				}
				results = append(results, res)
			}
			for i := 1; i < len(results); i++ {
				if !statsEqual(results[i].Stats, results[0].Stats) {
					t.Errorf("%s stats %+v differ from %s stats %+v against identical warmed stores",
						engines[i].name, results[i].Stats, engines[0].name, results[0].Stats)
				}
			}
		})
	}
}

// TestParallelBFSWorkerValidation covers defaulted and clamped worker
// counts: zero/negative fall back to GOMAXPROCS, and a pool larger than
// the frontier must not deadlock or misbehave.
func TestParallelBFSWorkerValidation(t *testing.T) {
	p, _, err := cli.BuildProtocol("multicast", "3,0,1,1", "", false)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := explore.BFS(p, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, -1, 1, 64} {
		res, err := explore.ParallelBFS(p, explore.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Verdict != seq.Verdict || res.Stats.States != seq.Stats.States {
			t.Errorf("workers=%d: %s %d states, sequential %s %d",
				workers, res.Verdict, res.Stats.States, seq.Verdict, seq.Stats.States)
		}
	}
}

// TestParallelBFSInitialViolation covers the degenerate counterexample at
// the initial state: the parallel engine must report it before spawning
// any workers, with an empty trace like the sequential engine.
func TestParallelBFSInitialViolation(t *testing.T) {
	p, _ := buildProto(t, protoCase{"", "storage", "2,1", false})
	bad := *p
	bad.Invariant = func(*core.State) error { return errors.New("violated in the initial state") }
	res, err := explore.ParallelBFS(&bad, explore.Options{Workers: 4, TrackTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != explore.VerdictViolated {
		t.Fatalf("verdict = %s, want CE", res.Verdict)
	}
	if len(res.Trace) != 0 {
		t.Errorf("trace length %d, want empty (initial state violates)", len(res.Trace))
	}
	if res.Violation == nil || !strings.Contains(res.Violation.Error(), "initial") {
		t.Errorf("violation = %v", res.Violation)
	}
}

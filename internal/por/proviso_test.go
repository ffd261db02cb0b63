// Tests of the ignoring proviso (C3) on cyclic state graphs: the DFS stack
// proviso and the BFS/ParallelBFS queue proviso must agree with each other
// and with unreduced search on every cyclic model — ParallelBFS
// additionally bit-identical to sequential BFS — and the IgnoringTrap must demonstrate that a reduced BFS
// *without* the proviso is genuinely unsound (it provably misses the
// violation).
package por

import (
	"testing"
	"time"

	"mpbasset/internal/core"
	"mpbasset/internal/explore"
	"mpbasset/internal/mptest"
)

// noopProviso mimics the pre-proviso BFS engines: it never promotes a
// reduced expansion. Used by the reference walker below to reconstruct the
// unsound reduced state graph.
type noopProviso struct{}

func (noopProviso) OnStack(string) bool    { return false }
func (noopProviso) Ignoring([]string) bool { return false }

// reducedBFSWithoutProviso exhaustively explores the reduced state graph
// the way the BFS engines did before the queue proviso existed: expander
// chosen events only, no promotion ever. It reports whether any reachable
// state (in that reduced graph) violates the invariant.
func reducedBFSWithoutProviso(t *testing.T, p *core.Protocol, exp *Expander) (violates bool, states int) {
	t.Helper()
	init, err := p.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	if p.CheckInvariant(init) != nil {
		return true, 1
	}
	seen := map[string]bool{init.Key(): true}
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
				if p.CheckInvariant(ns) != nil {
					return true, len(seen)
				}
				next = append(next, ns)
			}
		}
		frontier = next
	}
	return false, len(seen)
}

// comparableStats zeroes the Stats field outside the determinism
// guarantee that these in-memory runs can set: wall-clock time
// (eval.MaskVolatileStats is the canonical mask, but package eval imports
// this one).
func comparableStats(st explore.Stats) explore.Stats {
	st.Duration = 0
	return st
}

// provisoEngines is the engine matrix of the cyclic soundness tests: DFS,
// sequential BFS, and ParallelBFS with 1/2/8 workers, on the batched and
// the one-node-per-claim, per-key insert paths.
type provisoEngine struct {
	name string
	run  func(*core.Protocol, explore.Options) (*explore.Result, error)
}

func provisoEngines() []provisoEngine {
	parallel := func(workers, chunk, batch int) func(*core.Protocol, explore.Options) (*explore.Result, error) {
		return func(p *core.Protocol, xo explore.Options) (*explore.Result, error) {
			xo.Workers = workers
			xo.ChunkSize = chunk
			xo.BatchSize = batch
			return explore.ParallelBFS(p, xo)
		}
	}
	return []provisoEngine{
		{"BFS", explore.BFS},
		{"ParallelBFS-1", parallel(1, 0, 0)},
		{"ParallelBFS-2", parallel(2, 0, 0)},
		{"ParallelBFS-8", parallel(8, 0, 0)},
		{"ParallelBFS-8-batch1", parallel(8, 1, 1)},
		{"ParallelBFS-2-batch1", parallel(2, 1, 1)},
	}
}

// TestIgnoringTrapReducedBFSWithoutProvisoMisses is the unsoundness
// witness the queue proviso exists for: on the trap model the reduced
// state graph explored without any proviso contains NO violating state —
// the pre-proviso SPOR+BFS combination verified the protocol incorrectly —
// while unreduced search finds the violation one step from the initial
// state.
func TestIgnoringTrapReducedBFSWithoutProvisoMisses(t *testing.T) {
	for _, ring := range []int{2, 3, 5} {
		p, err := mptest.IgnoringTrap(ring)
		if err != nil {
			t.Fatal(err)
		}
		full, err := explore.BFS(p, explore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if full.Verdict != explore.VerdictViolated {
			t.Fatalf("ring %d: unreduced BFS verdict %s, want CE (the violation is reachable)", ring, full.Verdict)
		}
		exp, err := NewExpander(p)
		if err != nil {
			t.Fatal(err)
		}
		violates, states := reducedBFSWithoutProviso(t, p, exp)
		if violates {
			t.Fatalf("ring %d: proviso-less reduced BFS reached the violation — the trap no longer traps", ring)
		}
		// The proviso-less reduced graph is exactly the token loop: the
		// ring states, and nothing else.
		if states != ring {
			t.Errorf("ring %d: proviso-less reduced graph has %d states, want %d (the bare token loop)", ring, states, ring)
		}
	}
}

// TestIgnoringTrapAllEnginesAgree is the acceptance check of the queue
// proviso: on the trap — where SPOR+BFS previously verified incorrectly —
// every reduced engine must now report the violation with the identical,
// replayable trace (ring-1 CYC hops followed by the violating event),
// bit-identical across DFS, BFS and ParallelBFS at 1/2/8 workers on both
// insert paths, with a deterministic ProvisoExpansions count of 1 (only
// the expansion closing the ring is promoted).
func TestIgnoringTrapAllEnginesAgree(t *testing.T) {
	for _, ring := range []int{2, 3, 5} {
		p, err := mptest.IgnoringTrap(ring)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := NewExpander(p)
		if err != nil {
			t.Fatal(err)
		}
		dfs, err := explore.DFS(p, explore.Options{Expander: exp, TrackTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		if dfs.Verdict != explore.VerdictViolated {
			t.Fatalf("ring %d: SPOR DFS verdict %s, want CE", ring, dfs.Verdict)
		}
		if len(dfs.Trace) != ring {
			t.Fatalf("ring %d: DFS trace length %d, want %d (ring-1 hops + violation)", ring, len(dfs.Trace), ring)
		}
		if dfs.Stats.ProvisoExpansions != 1 {
			t.Errorf("ring %d: DFS ProvisoExpansions = %d, want 1", ring, dfs.Stats.ProvisoExpansions)
		}
		if _, err := explore.ReplayViolation(p, dfs.Trace, nil); err != nil {
			t.Errorf("ring %d: DFS counterexample does not replay: %v", ring, err)
		}
		for _, eng := range provisoEngines() {
			res, err := eng.run(p, explore.Options{Expander: exp, TrackTrace: true})
			if err != nil {
				t.Fatalf("ring %d %s: %v", ring, eng.name, err)
			}
			if res.Verdict != explore.VerdictViolated {
				t.Errorf("ring %d %s: verdict %s, want CE", ring, eng.name, res.Verdict)
				continue
			}
			if res.Stats.ProvisoExpansions != 1 {
				t.Errorf("ring %d %s: ProvisoExpansions = %d, want 1", ring, eng.name, res.Stats.ProvisoExpansions)
			}
			if len(res.Trace) != len(dfs.Trace) {
				t.Errorf("ring %d %s: trace length %d, DFS %d", ring, eng.name, len(res.Trace), len(dfs.Trace))
				continue
			}
			for i := range res.Trace {
				if res.Trace[i].StateKey != dfs.Trace[i].StateKey || res.Trace[i].Event.Key() != dfs.Trace[i].Event.Key() {
					t.Errorf("ring %d %s: trace step %d = %+v, DFS %+v", ring, eng.name, i, res.Trace[i], dfs.Trace[i])
					break
				}
			}
			if _, err := explore.ReplayViolation(p, res.Trace, nil); err != nil {
				t.Errorf("ring %d %s: counterexample does not replay: %v", ring, eng.name, err)
			}
		}
	}
}

// TestQueueProvisoSoundnessMatrixOnCyclicProtocols sweeps generated cyclic
// protocols — the original two-process bounce and longer rings, at both
// benign and adversarial cycle priorities — through the full engine
// matrix: reduced BFS must match the unreduced verdict (soundness), DFS
// must agree, and every BFS-family engine must report bit-identical
// statistics (including ProvisoExpansions) and traces for every worker
// count and insert path.
func TestQueueProvisoSoundnessMatrixOnCyclicProtocols(t *testing.T) {
	configs := []mptest.GenConfig{
		{Quorums: true, Cycles: true, Threshold: 1},
		{Quorums: true, Cycles: true, Threshold: 1, CyclePriority: 3},
		{Quorums: true, Cycles: true, Threshold: 1, RingSize: 3, CyclePriority: 3},
		{Quorums: true, Cycles: true, Threshold: 2, RingSize: 4, CyclePriority: 3},
	}
	provisoFired := 0
	for ci, base := range configs {
		for seed := int64(0); seed < 25; seed++ {
			cfg := base
			cfg.Seed = seed
			p, err := mptest.Random(cfg)
			if err != nil {
				t.Fatal(err)
			}
			full, err := explore.BFS(p, explore.Options{MaxDuration: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			exp, err := NewExpander(p)
			if err != nil {
				t.Fatal(err)
			}
			xo := explore.Options{Expander: exp, TrackTrace: true, MaxDuration: time.Minute}
			seq, err := explore.BFS(p, xo)
			if err != nil {
				t.Fatal(err)
			}
			if seq.Verdict != full.Verdict {
				t.Errorf("config %d seed %d: reduced BFS verdict %s, unreduced %s (queue proviso unsound)",
					ci, seed, seq.Verdict, full.Verdict)
			}
			if seq.Stats.ProvisoExpansions > 0 {
				provisoFired++
			}
			dfs, err := explore.DFS(p, xo)
			if err != nil {
				t.Fatal(err)
			}
			if dfs.Verdict != seq.Verdict {
				t.Errorf("config %d seed %d: SPOR DFS verdict %s, SPOR BFS %s", ci, seed, dfs.Verdict, seq.Verdict)
			}
			for _, eng := range provisoEngines()[1:] { // sequential BFS is the reference
				res, err := eng.run(p, xo)
				if err != nil {
					t.Fatalf("config %d seed %d %s: %v", ci, seed, eng.name, err)
				}
				ps, ss := comparableStats(res.Stats), comparableStats(seq.Stats)
				if ps != ss {
					t.Errorf("config %d seed %d %s: stats %+v, sequential %+v", ci, seed, eng.name, ps, ss)
				}
				if res.Verdict != seq.Verdict {
					t.Errorf("config %d seed %d %s: verdict %s, sequential %s", ci, seed, eng.name, res.Verdict, seq.Verdict)
				}
				if len(res.Trace) != len(seq.Trace) {
					t.Errorf("config %d seed %d %s: trace length %d, sequential %d", ci, seed, eng.name, len(res.Trace), len(seq.Trace))
					continue
				}
				for i := range res.Trace {
					if res.Trace[i].StateKey != seq.Trace[i].StateKey || res.Trace[i].Event.Key() != seq.Trace[i].Event.Key() {
						t.Errorf("config %d seed %d %s: trace step %d differs", ci, seed, eng.name, i)
						break
					}
				}
				if res.Verdict == explore.VerdictViolated {
					if _, err := explore.ReplayViolation(p, res.Trace, nil); err != nil {
						t.Errorf("config %d seed %d %s: counterexample does not replay: %v", ci, seed, eng.name, err)
					}
				}
			}
		}
	}
	if provisoFired == 0 {
		t.Error("queue proviso never fired across the cyclic sweep — the matrix is not exercising it")
	} else {
		t.Logf("queue proviso fired on %d/100 runs", provisoFired)
	}
}

// TestQueueProvisoDeterministicRepeats pins ProvisoExpansions determinism
// directly: repeated 8-worker runs of a proviso-firing model must report
// the bit-identical statistics every time.
func TestQueueProvisoDeterministicRepeats(t *testing.T) {
	p, err := mptest.IgnoringTrap(4)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := NewExpander(p)
	if err != nil {
		t.Fatal(err)
	}
	var base *explore.Result
	for i := 0; i < 10; i++ {
		res, err := explore.ParallelBFS(p, explore.Options{Expander: exp, Workers: 8, TrackTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		bs, rs := comparableStats(base.Stats), comparableStats(res.Stats)
		if rs != bs || res.Verdict != base.Verdict || len(res.Trace) != len(base.Trace) {
			t.Fatalf("run %d differs: %s %+v vs %s %+v", i, res.Verdict, rs, base.Verdict, bs)
		}
	}
}

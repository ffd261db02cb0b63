package explore_test

import (
	"testing"

	"mpbasset/internal/core"
	"mpbasset/internal/eval"
	"mpbasset/internal/explore"
	"mpbasset/internal/mptest"
)

// collapseModels returns a verified cyclic quorum model and a violating
// one (Threshold installs a reachable invariant), so the transparency
// tests cover both verdicts and a real counterexample trace.
func collapseModels(t *testing.T) (verified, violating *core.Protocol) {
	t.Helper()
	ok, err := mptest.Random(mptest.GenConfig{Seed: 9, MaxProcs: 4, Quorums: true, Cycles: true, RingSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := mptest.Random(mptest.GenConfig{Seed: 5, MaxProcs: 4, Quorums: true, Cycles: true, Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ok, bad
}

// TestCollapserTransparency pins collapse compression's core contract: the
// compressed canon is injective, so a search over it explores exactly the
// uncompressed search's state space — verdict and every deterministic
// statistic identical — over DFS and BFS alike.
func TestCollapserTransparency(t *testing.T) {
	verified, violating := collapseModels(t)
	engines := []struct {
		name string
		run  func(*core.Protocol, explore.Options) (*explore.Result, error)
	}{
		{"DFS", explore.DFS},
		{"BFS", explore.BFS},
	}
	for _, p := range []*core.Protocol{verified, violating} {
		for _, eng := range engines {
			plain, err := eng.run(p, explore.Options{TrackTrace: true, Store: explore.NewHashStore()})
			if err != nil {
				t.Fatal(err)
			}
			compressed, err := eng.run(p, explore.Options{
				TrackTrace: true,
				Store:      explore.NewHashStore(),
				Canon:      explore.NewCollapser().Canon,
			})
			if err != nil {
				t.Fatal(err)
			}
			ps, cs := plain.Stats, compressed.Stats
			ps.Duration, cs.Duration = 0, 0
			if plain.Verdict != compressed.Verdict || ps != cs {
				t.Errorf("%s/%s: compressed (%s, %+v), uncompressed (%s, %+v)",
					p.Name, eng.name, compressed.Verdict, cs, plain.Verdict, ps)
			}
			if len(plain.Trace) != len(compressed.Trace) {
				t.Errorf("%s/%s: compressed trace length %d, uncompressed %d",
					p.Name, eng.name, len(compressed.Trace), len(plain.Trace))
			}
		}
	}
}

// TestCollapserExpandRoundTrip pins Expand as the exact inverse of Canon:
// for every state of a search, expanding the compressed key reconstructs
// the state's full canonical key.
func TestCollapserExpandRoundTrip(t *testing.T) {
	verified, _ := collapseModels(t)
	coll := explore.NewCollapser()
	init, err := verified.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	// Walk a few hundred states breadth-first, checking the round trip on
	// each.
	frontier := []*core.State{init}
	seen := map[string]bool{init.Key(): true}
	for len(frontier) > 0 && len(seen) < 500 {
		s := frontier[0]
		frontier = frontier[1:]
		compressed := coll.Canon(s)
		full, err := coll.Expand(compressed)
		if err != nil {
			t.Fatalf("Expand(%q): %v", compressed, err)
		}
		if full != s.Key() {
			t.Fatalf("Expand(Canon(s)) = %q, want %q", full, s.Key())
		}
		for _, ev := range verified.Enabled(s) {
			succ, err := verified.Execute(s, ev)
			if err != nil {
				t.Fatal(err)
			}
			if !seen[succ.Key()] {
				seen[succ.Key()] = true
				frontier = append(frontier, succ)
			}
		}
	}
	if coll.Components() == 0 {
		t.Fatal("no components interned")
	}
}

// TestCollapserTraceExpansion pins the decompression path the facade and
// mpcheck run on every counterexample: a trace recorded under the
// compressed canon carries intern-table IDs, ExpandTrace rewrites them to
// full canonical keys, and the expanded trace replays with a nil canon.
func TestCollapserTraceExpansion(t *testing.T) {
	_, violating := collapseModels(t)
	coll := explore.NewCollapser()
	res, err := explore.DFS(violating, explore.Options{
		TrackTrace: true,
		Store:      explore.NewHashStore(),
		Canon:      coll.Canon,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != explore.VerdictViolated {
		t.Fatalf("verdict %s, want CE (the Threshold model violates)", res.Verdict)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	// Before expansion the keys are compressed and must NOT replay with a
	// nil canon (replay cross-checks recorded keys against s.Key()).
	if _, err := explore.ReplayViolation(violating, res.Trace, nil); err == nil {
		t.Fatal("compressed trace replayed against full keys — trace keys are not compressed?")
	}
	if err := coll.ExpandTrace(res.Trace); err != nil {
		t.Fatal(err)
	}
	if _, err := explore.ReplayViolation(violating, res.Trace, nil); err != nil {
		t.Fatalf("expanded trace does not replay: %v", err)
	}
}

// TestCollapserParallel pins that the compressed canon is safe under the
// parallel BFS engine and changes nothing the determinism guarantee
// covers: ParallelBFS over a collapser matches sequential BFS over its own
// collapser on verdicts and deterministic stats for any worker count.
// (Compressed trace keys are first-seen-order intern IDs and so are NOT
// comparable across worker counts — that is exactly why the facade
// expands them.)
func TestCollapserParallel(t *testing.T) {
	verified, violating := collapseModels(t)
	for _, p := range []*core.Protocol{verified, violating} {
		ref, err := explore.BFS(p, explore.Options{Store: explore.NewHashStore(), Canon: explore.NewCollapser().Canon})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			res, err := explore.ParallelBFS(p, explore.Options{
				Workers: workers,
				Store:   explore.NewShardedHashStore(),
				Canon:   explore.NewCollapser().Canon,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != ref.Verdict || !eval.StatsEqualModuloVolatile(res.Stats, ref.Stats) {
				t.Errorf("%s/workers=%d: (%s, %+v), sequential (%s, %+v)",
					p.Name, workers, res.Verdict, res.Stats, ref.Verdict, ref.Stats)
			}
		}
	}
}

// TestCollapserExpandErrors pins Expand's rejection of keys the collapser
// did not produce: compressed keys are run-internal names, not a portable
// encoding.
func TestCollapserExpandErrors(t *testing.T) {
	coll := explore.NewCollapser()
	for _, key := range []string{"", "0.1", "x#0", "0#x", "7#0", "0#7"} {
		if _, err := coll.Expand(key); err == nil {
			t.Errorf("Expand(%q) on an empty collapser succeeded", key)
		}
	}
}

package dpor_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"mpbasset/internal/core"
	"mpbasset/internal/dpor"
	"mpbasset/internal/eval"
	"mpbasset/internal/explore"
	"mpbasset/internal/mptest"
	"mpbasset/internal/protocols/multicast"
	"mpbasset/internal/protocols/paxos"
	"mpbasset/internal/protocols/storage"
)

// parallelWorkerCounts is the worker matrix the acceptance criteria pin:
// ExploreParallel must be bit-identical to Explore for every entry, with
// sleep sets on and off.
var parallelWorkerCounts = []int{1, 2, 4, 8}

// assertBitIdentical runs sequential and parallel DPOR under cfg and fails
// on any divergence in verdict, violation, deterministic statistics or
// counterexample trace. The volatile Stats fields (Duration, speculation
// counters) are masked through the same eval helper the differential and
// fuzz suites use everywhere else.
//
// Oversized models are bounded by MaxStates, never MaxDuration: a state cap
// truncates the committed walk at an exact, deterministic point, so even a
// VerdictLimit run must be bit-identical — whereas a wall-clock cap cuts
// each run wherever the scheduler happened to be, and the residual stats
// would diverge spuriously.
func assertBitIdentical(t *testing.T, p *core.Protocol, cfg dpor.Config, maxStates int) {
	t.Helper()
	opts := explore.Options{MaxStates: maxStates}
	seq, err := dpor.ExploreWith(p, opts, cfg)
	if err != nil {
		t.Fatalf("%s sequential (sleep=%v): %v", p.Name, cfg.SleepSets, err)
	}
	for _, w := range parallelWorkerCounts {
		popts := opts
		popts.Workers = w
		par, err := dpor.ExploreParallelWith(p, popts, cfg)
		if err != nil {
			t.Fatalf("%s parallel w=%d (sleep=%v): %v", p.Name, w, cfg.SleepSets, err)
		}
		if par.Verdict != seq.Verdict {
			t.Errorf("%s w=%d sleep=%v: verdict %s, sequential %s", p.Name, w, cfg.SleepSets, par.Verdict, seq.Verdict)
			continue
		}
		if !eval.StatsEqualModuloVolatile(par.Stats, seq.Stats) {
			ms, mp := seq.Stats, par.Stats
			eval.MaskVolatileStats(&ms)
			eval.MaskVolatileStats(&mp)
			t.Errorf("%s w=%d sleep=%v: stats diverge:\nparallel   %+v\nsequential %+v", p.Name, w, cfg.SleepSets, mp, ms)
		}
		seqViol, parViol := "", ""
		if seq.Violation != nil {
			seqViol = seq.Violation.Error()
		}
		if par.Violation != nil {
			parViol = par.Violation.Error()
		}
		if parViol != seqViol {
			t.Errorf("%s w=%d sleep=%v: violation %q, sequential %q", p.Name, w, cfg.SleepSets, parViol, seqViol)
		}
		if !reflect.DeepEqual(par.Trace, seq.Trace) {
			t.Errorf("%s w=%d sleep=%v: trace diverges (%d steps vs %d)", p.Name, w, cfg.SleepSets, len(par.Trace), len(seq.Trace))
		}
	}
}

// TestSpeculativeSentKeysMatchInlineOrder pins what Bag.Each's key order
// buys the parallel engine: the sent-message keys a speculative record
// memoizes are the inline computation's slice, element for element and
// ascending — not merely the same set, as they were while the bag iterated
// in map order.
func TestSpeculativeSentKeysMatchInlineOrder(t *testing.T) {
	p, err := storage.New(storage.Config{Objects: 3, Readers: 1, Model: storage.ModelSingle, Writes: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	broadcasts := 0
	for depth := 0; depth < 12; depth++ {
		inline, spec, err := dpor.SentKeys(p, s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(spec, inline) {
			t.Fatalf("depth %d: speculative sent keys %v, inline %v", depth, spec, inline)
		}
		for _, keys := range inline {
			if !sort.StringsAreSorted(keys) {
				t.Fatalf("depth %d: sent keys %v are not ascending", depth, keys)
			}
			if len(keys) > 1 {
				broadcasts++
			}
		}
		enabled := p.Enabled(s)
		if len(enabled) == 0 {
			break
		}
		if s, err = p.Execute(s, enabled[0]); err != nil {
			t.Fatal(err)
		}
	}
	if broadcasts == 0 {
		t.Fatal("no event on the walked path sent two messages; the order was never exercised")
	}
}

func TestParallelDPORMatchesSequentialOnRandomProtocols(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		for _, thr := range []int{0, 2} {
			p, err := mptest.Random(mptest.GenConfig{Seed: seed, Threshold: thr})
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, p, dpor.Config{SleepSets: true}, 300000)
			assertBitIdentical(t, p, dpor.Config{}, 300000)
		}
	}
}

// bundledSingleModels builds the bundled single-message models, with the
// storage model at the given number of objects.
func bundledSingleModels(t *testing.T, objects int) (px, mc, st *core.Protocol) {
	t.Helper()
	px, err := paxos.New(paxos.Config{Proposers: 1, Acceptors: 3, Learners: 1, Model: paxos.ModelSingle})
	if err != nil {
		t.Fatal(err)
	}
	mc, err = multicast.New(multicast.Config{HonestReceivers: 2, HonestInitiators: 1, ByzantineInitiators: 1, Model: multicast.ModelSingle})
	if err != nil {
		t.Fatal(err)
	}
	st, err = storage.New(storage.Config{Objects: objects, Readers: 1, Model: storage.ModelSingle, Writes: 1})
	if err != nil {
		t.Fatal(err)
	}
	return px, mc, st
}

// TestParallelDPOROnBundledSingleModels is the always-on slice of the
// bundled sweep: Paxos, multicast and the (2,1) storage model run to
// exhaustion, and the (3,1) storage model — 171k nodes with sleep sets,
// millions without — is cut at 30k states, which keeps the truncated,
// VerdictLimit side of the guarantee covered. The full-size sweep is
// TestParallelDPOROnBundledSingleModelsFullSize (build tag long).
func TestParallelDPOROnBundledSingleModels(t *testing.T) {
	px, mc, st := bundledSingleModels(t, 2)
	for _, p := range []*core.Protocol{px, mc, st} {
		assertBitIdentical(t, p, dpor.Config{SleepSets: true}, 300000)
		assertBitIdentical(t, p, dpor.Config{}, 300000)
	}
	_, _, big := bundledSingleModels(t, 3)
	assertBitIdentical(t, big, dpor.Config{SleepSets: true}, 30000)
	assertBitIdentical(t, big, dpor.Config{}, 30000)
}

// TestParallelDPORCounterexample pins the violating path: on the paper's
// deliberately wrong storage specification, every worker count must report
// the exact sequential counterexample, and the trace must replay — key
// cross-checks included — to a state that genuinely violates the
// invariant.
func TestParallelDPORCounterexample(t *testing.T) {
	p, err := storage.New(storage.Config{Objects: 3, Readers: 2, WrongRegularity: true, Model: storage.ModelSingle})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, p, dpor.Config{SleepSets: true}, 300000)
	res, err := dpor.Explore(p, explore.Options{MaxDuration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != explore.VerdictViolated || len(res.Trace) == 0 {
		t.Fatalf("expected a violation with a trace, got %s (trace %d)", res.Verdict, len(res.Trace))
	}
	if _, err := explore.ReplayViolation(p, res.Trace, nil); err != nil {
		t.Fatalf("genuine DPOR trace rejected: %v", err)
	}
}

// TestDPORTraceReplayVerifiesStateKeys is the corrupted-trace regression
// test mirroring explore's TestReplayVerifiesStateKeys: DPOR steps now
// record the post-step state key, so a mangled DPOR trace must be caught
// by explore.Replay's canon cross-check instead of slipping through with
// nothing to verify.
func TestDPORTraceReplayVerifiesStateKeys(t *testing.T) {
	p, err := storage.New(storage.Config{Objects: 3, Readers: 2, WrongRegularity: true, Model: storage.ModelSingle})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dpor.Explore(p, explore.Options{MaxDuration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != explore.VerdictViolated || len(res.Trace) == 0 {
		t.Fatalf("expected a violation with a trace, got %s (trace %d)", res.Verdict, len(res.Trace))
	}
	for _, step := range res.Trace {
		if step.StateKey == "" {
			t.Fatal("DPOR trace step with empty StateKey — the replay cross-check has nothing to verify")
		}
	}
	for _, corrupt := range []int{0, len(res.Trace) - 1} {
		mangled := append([]explore.Step(nil), res.Trace...)
		mangled[corrupt].StateKey = "bogus|" + mangled[corrupt].StateKey
		_, err := explore.Replay(p, mangled, nil)
		if err == nil {
			t.Fatalf("corrupted DPOR trace step %d accepted", corrupt)
		}
		if !strings.Contains(err.Error(), "state key mismatch") {
			t.Errorf("corrupted step %d: error %q, want a state key mismatch", corrupt, err)
		}
	}
}

func TestParallelDPORRejectsQuorumModels(t *testing.T) {
	p, err := paxos.New(paxos.Config{Proposers: 1, Acceptors: 3, Learners: 1, Model: paxos.ModelQuorum})
	if err != nil {
		t.Fatal(err)
	}
	_, err = dpor.ExploreParallel(p, explore.Options{Workers: 2})
	if err == nil {
		t.Fatal("parallel DPOR must reject quorum models (as Basset does)")
	}
	if !strings.Contains(err.Error(), "-model single") {
		t.Errorf("quorum rejection %q does not name the -model single spelling", err)
	}
}

// TestParallelDPORSpeculates sanity-checks that the machinery actually
// runs: on a model with real concurrency and enough workers, at least one
// run should build speculative records. The counters are volatile, so the
// assertion is existential (over several attempts), not exact.
func TestParallelDPORSpeculates(t *testing.T) {
	p, err := storage.New(storage.Config{Objects: 3, Readers: 1, Model: storage.ModelSingle, Writes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 5; attempt++ {
		res, err := dpor.ExploreParallel(p, explore.Options{Workers: 4, MaxDuration: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.SpeculatedVisits > 0 {
			return
		}
	}
	t.Error("no run built a single speculative record — the worker pool appears dead")
}

package mpbasset_test

import (
	"os"
	"strings"
	"testing"
	"time"

	"mpbasset"
	"mpbasset/internal/eval"
	"mpbasset/internal/explore"
	"mpbasset/internal/mptest"
	"mpbasset/internal/protocols/multicast"
	"mpbasset/internal/protocols/paxos"
	"mpbasset/internal/protocols/storage"
)

func TestCheckDefaults(t *testing.T) {
	p, err := paxos.New(paxos.Config{Proposers: 1, Acceptors: 3, Learners: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpbasset.Check(p, mpbasset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mpbasset.VerdictVerified {
		t.Fatalf("verdict = %s", res.Verdict)
	}
	if res.Stats.States == 0 || res.Stats.Duration == 0 {
		t.Fatal("stats not populated")
	}
}

func TestCheckAllSearches(t *testing.T) {
	quorum, err := paxos.New(paxos.Config{Proposers: 1, Acceptors: 3, Learners: 1})
	if err != nil {
		t.Fatal(err)
	}
	single, err := paxos.New(paxos.Config{Proposers: 1, Acceptors: 3, Learners: 1, Model: paxos.ModelSingle})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		p      *mpbasset.Protocol
		search mpbasset.Search
	}{
		{"spor", quorum, mpbasset.SearchSPOR},
		{"unreduced", quorum, mpbasset.SearchUnreduced},
		{"bfs", quorum, mpbasset.SearchBFS},
		{"stateless", quorum, mpbasset.SearchStateless},
		{"dpor", single, mpbasset.SearchDPOR},
	}
	for _, tc := range cases {
		res, err := mpbasset.Check(tc.p, mpbasset.Options{Search: tc.search, MaxDuration: time.Minute})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Verdict != mpbasset.VerdictVerified {
			t.Errorf("%s: verdict %s", tc.name, res.Verdict)
		}
	}
	// DPOR must reject quorum models.
	if _, err := mpbasset.Check(quorum, mpbasset.Options{Search: mpbasset.SearchDPOR}); err == nil {
		t.Error("DPOR accepted a quorum model")
	}
}

func TestCheckSplitAndSymmetry(t *testing.T) {
	cfg := paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1}
	p, err := paxos.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := mpbasset.Check(p, mpbasset.Options{Search: mpbasset.SearchUnreduced})
	if err != nil {
		t.Fatal(err)
	}
	split, err := mpbasset.Check(p, mpbasset.Options{Search: mpbasset.SearchUnreduced, Split: mpbasset.SplitCombined})
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 2 through the facade: same graph, same count, unreduced.
	if split.Stats.States != plain.Stats.States {
		t.Errorf("split changed unreduced state count: %d vs %d", split.Stats.States, plain.Stats.States)
	}
	sym, err := mpbasset.Check(p, mpbasset.Options{Search: mpbasset.SearchUnreduced, SymmetryRoles: cfg.Roles()})
	if err != nil {
		t.Fatal(err)
	}
	if sym.Stats.States >= plain.Stats.States {
		t.Errorf("symmetry did not reduce: %d vs %d", sym.Stats.States, plain.Stats.States)
	}
}

func TestCheckFindsBugsWithTraces(t *testing.T) {
	cases := []struct {
		name string
		mk   func() (*mpbasset.Protocol, error)
	}{
		{"faulty-paxos", func() (*mpbasset.Protocol, error) {
			return paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1, Faulty: true})
		}},
		{"wrong-agreement", func() (*mpbasset.Protocol, error) {
			return multicast.New(multicast.Config{HonestReceivers: 2, HonestInitiators: 1, ByzantineReceivers: 2, ByzantineInitiators: 1})
		}},
		{"wrong-regularity", func() (*mpbasset.Protocol, error) {
			return storage.New(storage.Config{Objects: 3, Readers: 2, WrongRegularity: true})
		}},
	}
	for _, tc := range cases {
		p, err := tc.mk()
		if err != nil {
			t.Fatal(err)
		}
		res, err := mpbasset.Check(p, mpbasset.Options{Search: mpbasset.SearchBFS, TrackTrace: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Verdict != mpbasset.VerdictViolated || res.Violation == nil || len(res.Trace) == 0 {
			t.Errorf("%s: expected a counterexample with trace, got %s", tc.name, res.Verdict)
		}
	}
}

// TestCheckWorkers drives the parallel BFS engine through the facade: under
// Workers, SearchBFS must reproduce its sequential run for several worker
// counts, with and without symmetry/refinement, and keep its
// counterexample traces.
func TestCheckWorkers(t *testing.T) {
	cfg := paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1}
	p, err := paxos.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := mpbasset.Check(p, mpbasset.Options{Search: mpbasset.SearchBFS, MaxDuration: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		res, err := mpbasset.Check(p, mpbasset.Options{Search: mpbasset.SearchBFS, Workers: workers, MaxDuration: 2 * time.Minute})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if res.Verdict != mpbasset.VerdictVerified {
			t.Errorf("workers %d: verdict %s", workers, res.Verdict)
		}
		if res.Stats.States != seq.Stats.States || res.Stats.Events != seq.Stats.Events {
			t.Errorf("workers %d: states=%d events=%d, sequential states=%d events=%d",
				workers, res.Stats.States, res.Stats.Events, seq.Stats.States, seq.Stats.Events)
		}
	}
	// Symmetry + refinement + workers through the facade.
	sym, err := mpbasset.Check(p, mpbasset.Options{
		Search: mpbasset.SearchBFS, Split: mpbasset.SplitCombined,
		SymmetryRoles: cfg.Roles(), Workers: 4, MaxDuration: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sym.Verdict != mpbasset.VerdictVerified {
		t.Errorf("symmetry+split+workers: verdict %s", sym.Verdict)
	}
	// Parallel counterexamples keep their traces.
	faulty, err := paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1, Faulty: true})
	if err != nil {
		t.Fatal(err)
	}
	ce, err := mpbasset.Check(faulty, mpbasset.Options{Search: mpbasset.SearchBFS, Workers: 4, TrackTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if ce.Verdict != mpbasset.VerdictViolated || len(ce.Trace) == 0 {
		t.Errorf("faulty paxos with workers: verdict %s, trace %d steps", ce.Verdict, len(ce.Trace))
	}
}

// TestWorkersLeaveSequentialSearchesUnchanged pins what Workers means off
// SearchBFS: nothing. The depth-first searches are one sequential walk
// each, so a run with Workers must pick the same engine and give the same
// verdict, statistics and trace as the run without — for static POR
// (verified and violating), DPOR, stateless search and a liveness
// property, on one bundled model each.
func TestWorkersLeaveSequentialSearchesUnchanged(t *testing.T) {
	px, err := paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1, Faulty: true})
	if err != nil {
		t.Fatal(err)
	}
	single, err := paxos.New(paxos.Config{Proposers: 1, Acceptors: 3, Learners: 1, Model: paxos.ModelSingle})
	if err != nil {
		t.Fatal(err)
	}
	stCfg := storage.Config{Objects: 3, Readers: 1}
	st, err := storage.New(stCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    *mpbasset.Protocol
		opts mpbasset.Options
	}{
		{"spor", px, mpbasset.Options{Search: mpbasset.SearchSPOR}},
		{"spor-violating", faulty, mpbasset.Options{Search: mpbasset.SearchSPOR}},
		{"dpor", single, mpbasset.Options{Search: mpbasset.SearchDPOR}},
		{"stateless", single, mpbasset.Options{Search: mpbasset.SearchStateless, MaxStates: 5000}},
		{"liveness", st, mpbasset.Options{Search: mpbasset.SearchSPOR, Property: storage.ReadsComplete(stCfg)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seqPlan, err := mpbasset.Prepare(tc.p, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := seqPlan.Run()
			if err != nil {
				t.Fatal(err)
			}
			withWorkers := tc.opts
			withWorkers.Workers = 2
			plan, err := mpbasset.Prepare(tc.p, withWorkers)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Engine() != seqPlan.Engine() {
				t.Errorf("engine %q with Workers, %q without", plan.Engine(), seqPlan.Engine())
			}
			res, err := plan.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != seq.Verdict || res.CycleLen != seq.CycleLen || res.Stutter != seq.Stutter {
				t.Errorf("verdict (%s, %d, %v) with Workers, (%s, %d, %v) without",
					res.Verdict, res.CycleLen, res.Stutter, seq.Verdict, seq.CycleLen, seq.Stutter)
			}
			rs, ws := res.Stats, seq.Stats
			eval.MaskVolatileStats(&rs)
			eval.MaskVolatileStats(&ws)
			if rs != ws {
				t.Errorf("stats %+v with Workers, %+v without", rs, ws)
			}
			if len(res.Trace) != len(seq.Trace) {
				t.Fatalf("trace length %d with Workers, %d without", len(res.Trace), len(seq.Trace))
			}
			for i := range res.Trace {
				if res.Trace[i].StateKey != seq.Trace[i].StateKey || res.Trace[i].Event.Key() != seq.Trace[i].Event.Key() {
					t.Fatalf("trace step %d diverges", i)
				}
			}
		})
	}
}

// TestCheckStoreBudget drives the facade's spill path: a check under a
// tiny memory budget must spill to disk, report the spill activity, and
// reproduce the unconstrained run's verdict and search statistics
// bit-identically — sequential, Workers on the default DFS search (which
// still runs the sequential engine) and parallel BFS, verified and
// violating.
func TestCheckStoreBudget(t *testing.T) {
	verified, err := paxos.New(paxos.Config{Proposers: 1, Acceptors: 3, Learners: 1})
	if err != nil {
		t.Fatal(err)
	}
	violating, err := paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1, Faulty: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    *mpbasset.Protocol
		opts mpbasset.Options
	}{
		{"sequential-spor", verified, mpbasset.Options{}},
		{"parallel-spor", verified, mpbasset.Options{Workers: 4}},
		{"parallel-bfs", verified, mpbasset.Options{Search: mpbasset.SearchBFS, Workers: 4}},
		{"bfs-violating", violating, mpbasset.Options{Search: mpbasset.SearchBFS, TrackTrace: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := mpbasset.Check(tc.p, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			budgeted := tc.opts
			budgeted.StoreBudgetBytes = 2048
			budgeted.SpillDir = t.TempDir()
			res, err := mpbasset.Check(tc.p, budgeted)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.SpillRuns == 0 || res.Stats.SpillBytes == 0 {
				t.Fatalf("tiny budget never spilled: %+v", res.Stats)
			}
			if res.Verdict != ref.Verdict {
				t.Errorf("verdict %s under budget, %s without", res.Verdict, ref.Verdict)
			}
			rs, ws := res.Stats, ref.Stats
			eval.MaskVolatileStats(&rs)
			eval.MaskVolatileStats(&ws)
			if rs != ws {
				t.Errorf("stats %+v under budget, %+v without", rs, ws)
			}
			if len(res.Trace) != len(ref.Trace) {
				t.Errorf("trace length %d under budget, %d without", len(res.Trace), len(ref.Trace))
			}
		})
	}
}

func TestCheckNilProtocol(t *testing.T) {
	if _, err := mpbasset.Check(nil, mpbasset.Options{}); err == nil {
		t.Fatal("nil protocol accepted")
	}
}

func TestCheckLimits(t *testing.T) {
	p, err := paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpbasset.Check(p, mpbasset.Options{Search: mpbasset.SearchUnreduced, MaxStates: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mpbasset.VerdictLimit {
		t.Fatalf("verdict = %s, want Limit", res.Verdict)
	}
}

func TestCheckExactStates(t *testing.T) {
	p, err := paxos.New(paxos.Config{Proposers: 1, Acceptors: 3, Learners: 1})
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := mpbasset.Check(p, mpbasset.Options{Search: mpbasset.SearchUnreduced})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := mpbasset.Check(p, mpbasset.Options{Search: mpbasset.SearchUnreduced, ExactStates: true})
	if err != nil {
		t.Fatal(err)
	}
	if hashed.Stats.States != exact.Stats.States {
		t.Fatalf("stores disagree: %d vs %d", hashed.Stats.States, exact.Stats.States)
	}
}

// TestCheckLiveness drives the liveness path through the facade: verified
// and violated properties, in-memory and spill stores, with the lasso fields populated on violations and the
// unsupported-search combinations rejected.
func TestCheckLiveness(t *testing.T) {
	st, err := storage.New(storage.Config{Objects: 3, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	prop := storage.ReadsComplete(storage.Config{Objects: 3, Readers: 1})
	var ref *mpbasset.Result
	for _, tc := range []struct {
		name string
		opts mpbasset.Options
	}{
		{"spor", mpbasset.Options{Property: prop}},
		{"unreduced", mpbasset.Options{Search: mpbasset.SearchUnreduced, Property: prop}},
		{"spor-spill", mpbasset.Options{Property: prop, StoreBudgetBytes: 1 << 10}},
	} {
		res, err := mpbasset.Check(st, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Verdict != mpbasset.VerdictVerified {
			t.Errorf("%s: verdict %s, want Verified", tc.name, res.Verdict)
		}
		// The SPOR configurations must agree bit-for-bit with each other
		// (unreduced explores a different graph and is checked by verdict).
		if tc.name == "spor" {
			ref = res
		} else if tc.name != "unreduced" {
			rs, ws := res.Stats, ref.Stats
			eval.MaskVolatileStats(&rs)
			eval.MaskVolatileStats(&ws)
			if rs != ws {
				t.Errorf("%s: stats %+v, want %+v", tc.name, rs, ws)
			}
		}
	}

	// A violated property yields a lasso counterexample through the facade.
	trap, trapProp, err := mptest.LivenessTrap(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpbasset.Check(trap, mpbasset.Options{Property: trapProp})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mpbasset.VerdictViolated || res.Violation == nil {
		t.Fatalf("trap: verdict %s (violation %v), want a violation", res.Verdict, res.Violation)
	}
	if len(res.Trace) == 0 || res.CycleLen < 1 || res.Stutter {
		t.Errorf("trap: lasso (trace %d, cycle %d, stutter %v), want a real cycle", len(res.Trace), res.CycleLen, res.Stutter)
	}
	if _, err := explore.ReplayLasso(trap, trapProp, res.Trace, res.CycleLen, res.Stutter, nil); err != nil {
		t.Errorf("trap: lasso does not replay: %v", err)
	}

	// The Eventually re-export builds usable properties.
	own := mpbasset.Eventually("never", nil, func(*mpbasset.State) bool { return false })
	if own == nil || own.Accept == nil {
		t.Fatal("Eventually re-export broken")
	}

	// Non-DFS searches reject properties.
	for _, search := range []mpbasset.Search{mpbasset.SearchBFS, mpbasset.SearchStateless, mpbasset.SearchDPOR} {
		if _, err := mpbasset.Check(st, mpbasset.Options{Search: search, Property: prop}); err == nil {
			t.Errorf("search %d accepted a liveness property", search)
		}
	}
}

// TestCheckCompress pins collapse compression's facade contract: verdicts
// and deterministic stats identical to the uncompressed run, and traces
// transparently decompressed to full canonical keys — bit-identical to the
// uncompressed trace, sequential and parallel alike — so replay with a nil
// canon works as if compression had never happened.
func TestCheckCompress(t *testing.T) {
	verified, err := paxos.New(paxos.Config{Proposers: 1, Acceptors: 3, Learners: 1})
	if err != nil {
		t.Fatal(err)
	}
	violating, err := paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1, Faulty: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    *mpbasset.Protocol
		opts mpbasset.Options
	}{
		{"sequential-spor", verified, mpbasset.Options{TrackTrace: true}},
		{"parallel-spor", verified, mpbasset.Options{TrackTrace: true, Workers: 4}},
		{"parallel-bfs", verified, mpbasset.Options{Search: mpbasset.SearchBFS, TrackTrace: true, Workers: 4}},
		{"violating-dfs", violating, mpbasset.Options{Search: mpbasset.SearchUnreduced, TrackTrace: true}},
		{"violating-parallel", violating, mpbasset.Options{Search: mpbasset.SearchBFS, TrackTrace: true, Workers: 4}},
		{"violating-bfs", violating, mpbasset.Options{Search: mpbasset.SearchBFS, TrackTrace: true}},
		{"spill", verified, mpbasset.Options{TrackTrace: true, StoreBudgetBytes: 2048}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := mpbasset.Check(tc.p, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			compressed := tc.opts
			compressed.Compress = true
			res, err := mpbasset.Check(tc.p, compressed)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != ref.Verdict {
				t.Fatalf("verdict %s compressed, %s plain", res.Verdict, ref.Verdict)
			}
			rs, ws := res.Stats, ref.Stats
			eval.MaskVolatileStats(&rs)
			eval.MaskVolatileStats(&ws)
			if rs != ws {
				t.Errorf("stats %+v compressed, %+v plain", rs, ws)
			}
			if len(res.Trace) != len(ref.Trace) {
				t.Fatalf("trace length %d compressed, %d plain", len(res.Trace), len(ref.Trace))
			}
			// The decompressed trace must match the uncompressed run's
			// full-key trace step for step...
			for i := range res.Trace {
				if res.Trace[i].StateKey != ref.Trace[i].StateKey ||
					res.Trace[i].Event.Key() != ref.Trace[i].Event.Key() {
					t.Fatalf("trace step %d diverges after decompression", i)
				}
			}
			// ...and replay against the protocol with a nil canon.
			if res.Verdict == mpbasset.VerdictViolated {
				if _, err := explore.ReplayViolation(tc.p, res.Trace, nil); err != nil {
					t.Errorf("decompressed trace does not replay: %v", err)
				}
			}
		})
	}
}

// TestCheckLossy drives the lossy bitstate store through the facade: the
// coverage stats are populated, the visited count never exceeds the exact
// run's on a verified space, and sequential lossy runs are reproducible.
func TestCheckLossy(t *testing.T) {
	p, err := paxos.New(paxos.Config{Proposers: 1, Acceptors: 3, Learners: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts mpbasset.Options
	}{
		{"default-size", mpbasset.Options{Lossy: true}},
		{"tiny", mpbasset.Options{Lossy: true, BitstateBytes: 64}},
		{"parallel", mpbasset.Options{Lossy: true, Search: mpbasset.SearchBFS, Workers: 4}},
		{"bfs", mpbasset.Options{Lossy: true, Search: mpbasset.SearchBFS}},
		{"compressed", mpbasset.Options{Lossy: true, Compress: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The exact reference runs the same search with the lossy store
			// swapped out, so state counts compare like against like.
			exactOpts := tc.opts
			exactOpts.Lossy, exactOpts.BitstateBytes = false, 0
			ref, err := mpbasset.Check(p, exactOpts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := mpbasset.Check(p, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.BitstateFill <= 0 || res.Stats.BitstateFill > 1 {
				t.Errorf("fill %v outside (0,1]", res.Stats.BitstateFill)
			}
			if res.Stats.BitstateOmission <= 0 || res.Stats.BitstateOmission > 1 {
				t.Errorf("omission %v outside (0,1]", res.Stats.BitstateOmission)
			}
			if ref.Verdict == mpbasset.VerdictVerified && res.Stats.States > ref.Stats.States {
				t.Errorf("lossy run visited %d states, exact %d", res.Stats.States, ref.Stats.States)
			}
			if res.Verdict == mpbasset.VerdictViolated && ref.Verdict == mpbasset.VerdictVerified {
				t.Errorf("lossy violation in a space the exact run verified")
			}
		})
	}
}

// ruleFixtures are the protocols and option values the rule tests share:
// a quorum model for every search but DPOR, which needs the single-message
// one.
type ruleFixtures struct {
	quorum, single *mpbasset.Protocol
	roles          [][]mpbasset.ProcessID
	prop           *mpbasset.Property
}

func newRuleFixtures(t *testing.T) ruleFixtures {
	t.Helper()
	cfg := paxos.Config{Proposers: 1, Acceptors: 3, Learners: 1}
	quorum, err := paxos.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.Model = paxos.ModelSingle
	single, err := paxos.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	return ruleFixtures{quorum: quorum, single: single, roles: cfg.Roles(), prop: paxos.Decides(cfg)}
}

func (fx ruleFixtures) protocol(search mpbasset.Search) *mpbasset.Protocol {
	if search == mpbasset.SearchDPOR {
		return fx.single
	}
	return fx.quorum
}

// assertNoSpillLeft fails when a check left anything in the temporary
// directory its spill stores were pointed at.
func assertNoSpillLeft(t *testing.T, dir string) {
	t.Helper()
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left behind in the temp dir: %s", e.Name())
	}
}

// TestOptionRules is the one test of the option-compatibility table: every
// row of the table has a minimal violating Options value, rejected by
// Validate and by Check alike with that row's message, which names both
// the Go field and the CLI flag; and every combination the per-validator
// tests of the CLI and the facade used to pin survives as an input row —
// accepted rows run to a result under a small state cap.
func TestOptionRules(t *testing.T) {
	fx := newRuleFixtures(t)
	const (
		spor      = mpbasset.SearchSPOR
		unreduced = mpbasset.SearchUnreduced
		bfs       = mpbasset.SearchBFS
		stateless = mpbasset.SearchStateless
		dpor      = mpbasset.SearchDPOR
	)
	fair := *fx.prop
	fair.WeakFair = true
	spillDir := t.TempDir()

	// One minimal violation per table row, in table order.
	msgs := mpbasset.RuleMessages()
	violations := []struct {
		opts        mpbasset.Options
		field, flag string
	}{
		{mpbasset.Options{Search: mpbasset.Search(9)}, "Search", "-search"},
		{mpbasset.Options{Search: bfs, Property: fx.prop}, "Property", "-property"},
		{mpbasset.Options{SpillDir: spillDir}, "SpillDir", "-spill-dir"},
		{mpbasset.Options{BitstateBytes: 1 << 20}, "BitstateBytes", "-bitstate-bytes"},
		{mpbasset.Options{Search: stateless, Lossy: true}, "Lossy", "-lossy"},
		{mpbasset.Options{Lossy: true, Property: fx.prop}, "Property", "-lossy"},
		{mpbasset.Options{Lossy: true, ExactStates: true}, "ExactStates", "-lossy"},
		{mpbasset.Options{Lossy: true, StoreBudgetBytes: 1 << 20}, "StoreBudgetBytes", "-mem-budget"},
		{mpbasset.Options{Search: dpor, Compress: true}, "Compress", "-compress"},
		{mpbasset.Options{Compress: true, SymmetryRoles: fx.roles}, "SymmetryRoles", "-symmetry"},
		{mpbasset.Options{StoreBudgetBytes: 1 << 20, ExactStates: true}, "ExactStates", "-mem-budget"},
		{mpbasset.Options{Search: dpor, StoreBudgetBytes: 1 << 20}, "StoreBudgetBytes", "-mem-budget"},
		{mpbasset.Options{Search: bfs, ChunkSize: 16}, "ChunkSize", "-chunk"},
		{mpbasset.Options{Workers: 4, ChunkSize: 16}, "ChunkSize", "-search bfs"},
		{mpbasset.Options{Search: bfs, BatchSize: 64}, "BatchSize", "-batch"},
		{mpbasset.Options{Workers: 4, BatchSize: 64}, "BatchSize", "-search bfs"},
	}
	if len(violations) != len(msgs) {
		t.Fatalf("%d violating inputs for %d rules: every rule needs exactly one", len(violations), len(msgs))
	}
	for i, v := range violations {
		want := "mpbasset: " + msgs[i]
		err := v.opts.Validate()
		if err == nil || err.Error() != want {
			t.Errorf("rule %d: Validate(%+v) = %v, want %q", i, v.opts, err, want)
			continue
		}
		if !strings.Contains(want, v.field) || !strings.Contains(want, "("+v.flag) {
			t.Errorf("rule %d: message %q does not name field %s and flag %s", i, want, v.field, v.flag)
		}
		if res, cerr := mpbasset.Check(fx.protocol(v.opts.Search), v.opts); res != nil || cerr == nil || cerr.Error() != want {
			t.Errorf("rule %d: Check = %v, %v; want the rule's rejection", i, res, cerr)
		}
	}

	// The rows of the retired per-validator tests. reject is a substring of
	// the expected message; empty means accepted.
	rows := []struct {
		name   string
		opts   mpbasset.Options
		reject string
	}{
		// The CLI's parallel-flag rows: -workers is accepted with every
		// search and parallelizes only bfs ("dfs" parses to SearchUnreduced).
		{"sequential defaults", mpbasset.Options{}, ""},
		{"workers with spor", mpbasset.Options{Search: spor, Workers: 8}, ""},
		{"workers with unreduced", mpbasset.Options{Search: unreduced, Workers: 2}, ""},
		{"workers with dfs alias", mpbasset.Options{Search: unreduced, Workers: 4}, ""},
		{"workers with bfs", mpbasset.Options{Search: bfs, Workers: 4}, ""},
		{"workers with dpor", mpbasset.Options{Search: dpor, Workers: 1}, ""},
		{"many workers with dpor", mpbasset.Options{Search: dpor, Workers: 8}, ""},
		{"workers with stateless", mpbasset.Options{Search: stateless, Workers: 4}, ""},
		// The three tuning knobs, on the Go API as on the command line.
		{"workers with bfs knobs", mpbasset.Options{Search: bfs, Workers: 4, ChunkSize: 16, BatchSize: 128}, ""},
		{"chunk without workers", mpbasset.Options{ChunkSize: 16}, "ChunkSize (-chunk) requires Workers (-workers)"},
		{"batch without workers", mpbasset.Options{BatchSize: 64}, "BatchSize (-batch) requires Workers (-workers)"},
		{"both knobs without workers", mpbasset.Options{Search: bfs, ChunkSize: 8, BatchSize: 8}, "ChunkSize (-chunk) requires Workers (-workers)"},
		{"chunk with dfs", mpbasset.Options{Search: spor, Workers: 4, ChunkSize: 16}, "ChunkSize (-chunk) requires SearchBFS"},
		{"batch with dfs", mpbasset.Options{Search: unreduced, Workers: 4, BatchSize: 64}, "BatchSize (-batch) requires SearchBFS"},
		{"chunk with dpor", mpbasset.Options{Search: dpor, Workers: 4, ChunkSize: 16}, "ChunkSize (-chunk) requires SearchBFS"},
		{"batch with dpor", mpbasset.Options{Search: dpor, Workers: 4, BatchSize: 64}, "BatchSize (-batch) requires SearchBFS"},
		// The CLI's spill-flag rows and TestCheckStoreBudgetRejections.
		{"budget with spor", mpbasset.Options{StoreBudgetBytes: 1 << 20}, ""},
		{"budget with unreduced", mpbasset.Options{Search: unreduced, StoreBudgetBytes: 1 << 20}, ""},
		{"budget with bfs", mpbasset.Options{Search: bfs, StoreBudgetBytes: 1 << 20}, ""},
		{"budget and dir", mpbasset.Options{Search: bfs, StoreBudgetBytes: 1 << 20, SpillDir: spillDir}, ""},
		{"budget with stateless", mpbasset.Options{Search: stateless, StoreBudgetBytes: 1 << 20}, "StoreBudgetBytes (-mem-budget) requires a stateful search"},
		{"budget with dpor", mpbasset.Options{Search: dpor, StoreBudgetBytes: 1 << 20}, "StoreBudgetBytes (-mem-budget) requires a stateful search"},
		{"dir without budget", mpbasset.Options{SpillDir: spillDir}, "SpillDir (-spill-dir) requires StoreBudgetBytes (-mem-budget)"},
		{"budget with exact states", mpbasset.Options{StoreBudgetBytes: 1 << 20, ExactStates: true}, "StoreBudgetBytes (-mem-budget) is incompatible with ExactStates"},
		// The CLI's liveness-flag rows and TestCheckLiveness's rejections (-fair
		// without -property has no Options form: cli.BuildProperty refuses it).
		{"property with spor", mpbasset.Options{Property: fx.prop}, ""},
		{"property with unreduced", mpbasset.Options{Search: unreduced, Property: fx.prop}, ""},
		{"property and fair", mpbasset.Options{Property: &fair}, ""},
		{"property with bfs", mpbasset.Options{Search: bfs, Property: fx.prop}, "Property (-property) requires a DFS search"},
		{"property with stateless", mpbasset.Options{Search: stateless, Property: fx.prop}, "Property (-property) requires a DFS search"},
		{"property with dpor", mpbasset.Options{Search: dpor, Property: fx.prop}, "Property (-property) requires a DFS search"},
		{"fair with bfs property", mpbasset.Options{Search: bfs, Property: &fair}, "Property (-property) requires a DFS search"},
		// The CLI's -lossy rows (untested until now) and the lossy half of
		// TestCheckLossyCompressRejections.
		{"lossy with spor", mpbasset.Options{Lossy: true}, ""},
		{"lossy with bfs", mpbasset.Options{Search: bfs, Lossy: true}, ""},
		{"lossy with workers", mpbasset.Options{Lossy: true, Workers: 2}, ""},
		{"lossy sized", mpbasset.Options{Lossy: true, BitstateBytes: 1 << 10}, ""},
		{"bitstate-bytes without lossy", mpbasset.Options{BitstateBytes: 1 << 20}, "BitstateBytes (-bitstate-bytes) requires Lossy (-lossy)"},
		{"lossy with stateless", mpbasset.Options{Search: stateless, Lossy: true}, "Lossy (-lossy) requires a stateful search"},
		{"lossy with dpor", mpbasset.Options{Search: dpor, Lossy: true}, "Lossy (-lossy) requires a stateful search"},
		{"lossy with property", mpbasset.Options{Lossy: true, Property: fx.prop}, "Lossy (-lossy) is incompatible with Property (-property)"},
		{"lossy with exact states", mpbasset.Options{Lossy: true, ExactStates: true}, "Lossy (-lossy) is incompatible with ExactStates"},
		{"lossy with mem-budget", mpbasset.Options{Lossy: true, StoreBudgetBytes: 1 << 20}, "Lossy (-lossy) is incompatible with StoreBudgetBytes (-mem-budget)"},
		// The CLI's -compress rows (untested until now) and the compress half.
		{"compress with spor", mpbasset.Options{Compress: true}, ""},
		{"compress with bfs", mpbasset.Options{Search: bfs, Compress: true}, ""},
		{"compress with mem-budget", mpbasset.Options{Compress: true, StoreBudgetBytes: 1 << 20}, ""},
		{"compress with stateless", mpbasset.Options{Search: stateless, Compress: true}, "Compress (-compress) requires a stateful search"},
		{"compress with dpor", mpbasset.Options{Search: dpor, Compress: true}, "Compress (-compress) requires a stateful search"},
		{"compress with symmetry", mpbasset.Options{Compress: true, SymmetryRoles: fx.roles}, "Compress (-compress) is incompatible with SymmetryRoles (-symmetry)"},
	}
	for _, tc := range rows {
		opts := tc.opts
		opts.MaxStates = 200
		res, err := mpbasset.Check(fx.protocol(opts.Search), opts)
		if tc.reject == "" {
			if err != nil || res == nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if res != nil || err == nil || !strings.Contains(err.Error(), tc.reject) {
			t.Errorf("%s: result %v, error %v; want a rejection containing %q", tc.name, res, err, tc.reject)
		}
	}
}

// TestOptionSweep crosses every search with every subset of the features
// the rules mention: each combination is either rejected by the table —
// Check then returns exactly Validate's error — or runs to a result in
// which the selected store tier is visibly the one that ran. Nothing
// panics, nothing is silently dropped, and no combination leaves spill
// files behind.
func TestOptionSweep(t *testing.T) {
	fx := newRuleFixtures(t)
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	features := []func(*mpbasset.Options){
		func(o *mpbasset.Options) { o.Workers = 2 },
		func(o *mpbasset.Options) { o.Property = fx.prop },
		func(o *mpbasset.Options) { o.Lossy = true },
		func(o *mpbasset.Options) { o.Compress = true },
		func(o *mpbasset.Options) { o.StoreBudgetBytes = 1 },
		func(o *mpbasset.Options) { o.SymmetryRoles = fx.roles },
		func(o *mpbasset.Options) { o.ExactStates = true },
	}
	accepted := 0
	for search := mpbasset.Search(0); search <= mpbasset.SearchDPOR; search++ {
		for mask := 0; mask < 1<<len(features); mask++ {
			opts := mpbasset.Options{Search: search, MaxStates: 60, TrackTrace: true}
			for i, set := range features {
				if mask&(1<<i) != 0 {
					set(&opts)
				}
			}
			verr := opts.Validate()
			res, err := mpbasset.Check(fx.protocol(search), opts)
			if verr != nil {
				if res != nil || err == nil || err.Error() != verr.Error() {
					t.Errorf("search %d mask %07b: Validate says %q, Check returned %v, %v", search, mask, verr, res, err)
				}
				continue
			}
			if err != nil || res == nil {
				t.Errorf("search %d mask %07b: accepted by the rules, Check failed: %v", search, mask, err)
				continue
			}
			accepted++
			if opts.Lossy != (res.Stats.BitstateFill > 0) {
				t.Errorf("search %d mask %07b: Lossy %v, bitstate fill %v", search, mask, opts.Lossy, res.Stats.BitstateFill)
			}
			if (opts.StoreBudgetBytes > 0) != (res.Stats.SpillRuns > 0) {
				t.Errorf("search %d mask %07b: StoreBudgetBytes %d, %d spill runs", search, mask, opts.StoreBudgetBytes, res.Stats.SpillRuns)
			}
		}
	}
	if accepted == 0 {
		t.Error("the sweep accepted nothing")
	}
	assertNoSpillLeft(t, tmp)
}

// TestCheckReleasesSpillOnError is the regression test for the spill
// temp-dir leak: a check that fails after validation — a symmetry group
// over a process the protocol does not have — or on an unknown search used
// to return with an open spill store's mpbasset-spill-* directory left in
// TMPDIR. Every fallible build step now runs before the store is acquired.
func TestCheckReleasesSpillOnError(t *testing.T) {
	fx := newRuleFixtures(t)
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for name, opts := range map[string]mpbasset.Options{
		"symmetry out of range": {StoreBudgetBytes: 1 << 20, SymmetryRoles: [][]mpbasset.ProcessID{{1, 99}}},
		"unknown search":        {StoreBudgetBytes: 1 << 20, Search: mpbasset.Search(9)},
	} {
		if res, err := mpbasset.Check(fx.quorum, opts); err == nil {
			t.Errorf("%s: accepted (%v)", name, res.Verdict)
		}
	}
	assertNoSpillLeft(t, tmp)
}

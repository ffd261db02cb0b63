// Differential tests of the NDFS liveness engine against the
// liveness.Oracle reference (explicit Büchi-product BFS + Tarjan SCC): on
// every suite model and property, every NDFS configuration — over
// in-memory and spill stores, unreduced and SPOR — must agree with the
// oracle's verdict, the runs of each reduction mode must be bit-identical
// to their in-memory reference, and every reported lasso must replay as a
// genuine accepting (and fair, when requested) cycle.
package explore_test

import (
	"testing"
	"time"

	"mpbasset/internal/core"
	"mpbasset/internal/explore"
	"mpbasset/internal/liveness"
	"mpbasset/internal/mptest"
	"mpbasset/internal/por"
	"mpbasset/internal/protocols/multicast"
	"mpbasset/internal/protocols/paxos"
	"mpbasset/internal/protocols/storage"
	"mpbasset/internal/symmetry"
)

// oracleMaxStates bounds the explicit product the reference oracle builds;
// runs that exceed it are skipped rather than half-checked.
const oracleMaxStates = 400_000

// livenessModel is one (protocol, property) cell of the liveness suite.
// The protocol is already instrumented for the property (visibility marks
// for C2), so the unreduced runs, the SPOR runs and the oracle all explore
// the same graph. full selects the full engine × store matrix; the larger
// models run a trimmed matrix (spilling a 25k-state product through a
// 512-byte budget takes ~10s per run, and the full matrix does it twelve
// times — the small models cover that plane exhaustively instead).
type livenessModel struct {
	name string
	p    *core.Protocol
	prop *liveness.Property
	full bool
}

// livenessSuite pairs the bundled suite models with their canonical
// liveness properties (all verified — the bounded instances do reach their
// goals), plus three violated models covering both lasso shapes: the
// liveness trap and a cyclic generated model (real accepting cycles) and a
// single-reader storage model with an unreachable goal (a stutter lasso at
// the run's final deadlock).
func livenessSuite(t *testing.T) []livenessModel {
	t.Helper()
	var suite []livenessModel
	add := func(name string, full bool, p *core.Protocol, prop *liveness.Property, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		ip, err := liveness.Instrument(p, prop)
		if err != nil {
			t.Fatal(err)
		}
		suite = append(suite, livenessModel{name: name, p: ip, prop: prop, full: full})
	}
	pxCfg := paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1}
	px, err := paxos.New(pxCfg)
	add("paxos-231", false, px, paxos.Decides(pxCfg), err)
	fxCfg := paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1, Faulty: true}
	fx, err := paxos.New(fxCfg)
	add("faulty-paxos-231", false, fx, paxos.Decides(fxCfg), err)
	mcCfg := multicast.Config{HonestReceivers: 2, HonestInitiators: 1, ByzantineInitiators: 1}
	mc, err := multicast.New(mcCfg)
	add("multicast-2101", true, mc, multicast.Delivers(mcCfg), err)
	stCfg := storage.Config{Objects: 3, Readers: 1}
	st, err := storage.New(stCfg)
	add("storage-31", false, st, storage.ReadsComplete(stCfg), err)
	trap, trapProp, err := mptest.LivenessTrap(4)
	add("liveness-trap-4", true, trap, trapProp, err)
	s1Cfg := storage.Config{Objects: 1, Readers: 1}
	s1, err := storage.New(s1Cfg)
	add("storage-11-stuck", true, s1, liveness.Eventually("unreachable goal", nil,
		func(*core.State) bool { return false }), err)
	cyc, err := mptest.Random(mptest.GenConfig{Seed: 1, Quorums: true, Cycles: true, RingSize: 3, CyclePriority: 3})
	add("random-cyclic-1", true, cyc, liveness.Eventually("rounds reach 2", []core.ProcessID{0},
		func(s *core.State) bool { return s.Local(0).(*mptest.Local).Rounds >= 2 }), err)
	return suite
}

// checkLasso validates a violated result's lasso certificate end to end.
func checkLasso(t *testing.T, label string, p *core.Protocol, prop *liveness.Property, res *explore.Result) {
	t.Helper()
	if _, err := explore.ReplayLasso(p, prop, res.Trace, res.CycleLen, res.Stutter, nil); err != nil {
		t.Errorf("%s: lasso does not replay: %v", label, err)
	}
}

// sameLasso compares two results of the same reduction mode bit-for-bit:
// verdict, lasso shape, trace steps, violation message and every
// deterministic statistic (spill counters and Duration masked).
func sameLasso(t *testing.T, label string, res, ref *explore.Result) {
	t.Helper()
	if res.Verdict != ref.Verdict || res.CycleLen != ref.CycleLen || res.Stutter != ref.Stutter {
		t.Errorf("%s: verdict/cycle (%s, %d, %v), reference (%s, %d, %v)",
			label, res.Verdict, res.CycleLen, res.Stutter, ref.Verdict, ref.CycleLen, ref.Stutter)
		return
	}
	if rs, fs := maskSpill(res.Stats), maskSpill(ref.Stats); rs != fs {
		t.Errorf("%s: stats %+v, reference %+v", label, rs, fs)
	}
	if (res.Violation == nil) != (ref.Violation == nil) {
		t.Errorf("%s: violation %v, reference %v", label, res.Violation, ref.Violation)
	} else if res.Violation != nil && res.Violation.Error() != ref.Violation.Error() {
		t.Errorf("%s: violation %q, reference %q", label, res.Violation, ref.Violation)
	}
	if len(res.Trace) != len(ref.Trace) {
		t.Errorf("%s: trace length %d, reference %d", label, len(res.Trace), len(ref.Trace))
		return
	}
	for i := range res.Trace {
		if res.Trace[i].StateKey != ref.Trace[i].StateKey || res.Trace[i].Event.Key() != ref.Trace[i].Event.Key() {
			t.Errorf("%s: trace step %d = %+v, reference %+v", label, i, res.Trace[i], ref.Trace[i])
			return
		}
	}
}

// TestNDFSOracleDifferentialOnSuiteModels is the NDFS acceptance test: on
// every suite model × property, the Tarjan oracle fixes the ground truth,
// and every NDFS configuration — mem and spill stores, unreduced and SPOR
// — must report the oracle's verdict, stay bit-identical within its
// reduction mode, and produce replayable lassos on violations.
func TestNDFSOracleDifferentialOnSuiteModels(t *testing.T) {
	for _, m := range livenessSuite(t) {
		m := m
		t.Run(m.name, func(t *testing.T) {
			ores, err := liveness.Oracle(m.p, m.prop, oracleMaxStates)
			if err != nil {
				t.Fatal(err)
			}
			if ores.Limited {
				t.Skipf("oracle limited at %d product states", ores.States)
			}
			want := explore.VerdictVerified
			if ores.Violated {
				want = explore.VerdictViolated
			}
			exp, err := por.NewExpander(m.p)
			if err != nil {
				t.Fatal(err)
			}
			modes := []struct {
				name string
				exp  explore.Expander
			}{
				{"unreduced", nil},
				{"spor", exp},
			}
			for _, mode := range modes {
				ref, err := explore.NDFS(m.p, explore.Options{Expander: mode.exp, Property: m.prop})
				if err != nil {
					t.Fatalf("%s: %v", mode.name, err)
				}
				if ref.Verdict != want {
					t.Fatalf("%s: sequential NDFS verdict %s, oracle %s (states %d, accepting %d)",
						mode.name, ref.Verdict, want, ores.States, ores.AcceptingStates)
				}
				if ref.Verdict == explore.VerdictViolated {
					checkLasso(t, m.name+"/"+mode.name, m.p, m.prop, ref)
				}
				// The reference ran over the in-memory store; the spill run
				// must reproduce it. The larger models get a larger budget
				// to bound merge churn.
				budget := int64(512)
				if !m.full {
					budget = 64 << 10
				}
				res, err := explore.NDFS(m.p, explore.Options{Expander: mode.exp, Property: m.prop, Store: tinySpill(t, budget)})
				if err != nil {
					t.Fatalf("%s/spill: %v", mode.name, err)
				}
				sameLasso(t, m.name+"/"+mode.name+"/spill", res, ref)
			}
		})
	}
}

// TestLivenessTrapNDFSFindsWhatProvisoFreeReductionMisses pins the
// liveness trap end to end on the engine side (the por package holds the
// proviso-free reference): SPOR NDFS must report the accepting cycle, with
// the stack proviso firing exactly once (promoting the expansion that
// closes the ring), and the unreduced run and oracle must agree.
func TestLivenessTrapNDFSFindsWhatProvisoFreeReductionMisses(t *testing.T) {
	for _, ring := range []int{2, 3, 5} {
		p, prop, err := mptest.LivenessTrap(ring)
		if err != nil {
			t.Fatal(err)
		}
		ores, err := liveness.Oracle(p, prop, oracleMaxStates)
		if err != nil {
			t.Fatal(err)
		}
		if ores.Limited || !ores.Violated {
			t.Fatalf("ring %d: oracle violated=%v limited=%v, want a violation (the accepting ring cycle)",
				ring, ores.Violated, ores.Limited)
		}
		exp, err := por.NewExpander(p)
		if err != nil {
			t.Fatal(err)
		}
		spor, err := explore.NDFS(p, explore.Options{Expander: exp, Property: prop})
		if err != nil {
			t.Fatal(err)
		}
		if spor.Verdict != explore.VerdictViolated {
			t.Fatalf("ring %d: SPOR NDFS verdict %s, want CE", ring, spor.Verdict)
		}
		if spor.Stats.ProvisoExpansions == 0 {
			t.Errorf("ring %d: SPOR NDFS never fired the stack proviso — the trap is not exercising it", ring)
		}
		if spor.Stutter || spor.CycleLen == 0 {
			t.Errorf("ring %d: cycle (len %d, stutter %v), want a real ring cycle", ring, spor.CycleLen, spor.Stutter)
		}
		checkLasso(t, "spor", p, prop, spor)
		unred, err := explore.NDFS(p, explore.Options{Property: prop})
		if err != nil {
			t.Fatal(err)
		}
		if unred.Verdict != explore.VerdictViolated {
			t.Fatalf("ring %d: unreduced NDFS verdict %s, want CE", ring, unred.Verdict)
		}
		checkLasso(t, "unreduced", p, prop, unred)
	}
}

// TestNDFSWeakFairnessFlipsVerdict exercises the fairness monitor with a
// property whose only counterexample cycle is unfair: on the liveness-trap
// model, "process 0 eventually progresses" is violated by the rounds-0
// token loop — but on that loop PROGRESS is continuously enabled and never
// fires, so under weak fairness the property holds. The oracle (whose
// fairness encoding is an independent implementation of the same copies
// construction) must flip the same way.
func TestNDFSWeakFairnessFlipsVerdict(t *testing.T) {
	for _, ring := range []int{2, 4} {
		p, _, err := mptest.LivenessTrap(ring)
		if err != nil {
			t.Fatal(err)
		}
		progress := func(fair bool) *liveness.Property {
			prop := liveness.Eventually("process 0 progresses", []core.ProcessID{0}, func(s *core.State) bool {
				return s.Local(0).(*mptest.Local).Rounds >= 1
			})
			prop.WeakFair = fair
			return prop
		}
		for _, tc := range []struct {
			fair bool
			want explore.Verdict
		}{
			{false, explore.VerdictViolated},
			{true, explore.VerdictVerified},
		} {
			prop := progress(tc.fair)
			ores, err := liveness.Oracle(p, prop, oracleMaxStates)
			if err != nil {
				t.Fatal(err)
			}
			if ores.Limited || ores.Violated != (tc.want == explore.VerdictViolated) {
				t.Errorf("ring %d fair=%v: oracle violated=%v limited=%v, want violated=%v",
					ring, tc.fair, ores.Violated, ores.Limited, tc.want == explore.VerdictViolated)
			}
			ref, err := explore.NDFS(p, explore.Options{Property: prop})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Verdict != tc.want {
				t.Errorf("ring %d fair=%v: NDFS verdict %s, want %s", ring, tc.fair, ref.Verdict, tc.want)
				continue
			}
			if ref.Verdict == explore.VerdictViolated {
				checkLasso(t, "fairness-flip", p, prop, ref)
			}
		}
	}
}

// TestNDFSDeterministicRepeats pins NDFS determinism directly: repeated
// runs over both verdict polarities must be bit-identical every time, so
// no map-iteration order leaks into the nested search or its lasso.
func TestNDFSDeterministicRepeats(t *testing.T) {
	trap, trapProp, err := mptest.LivenessTrap(4)
	if err != nil {
		t.Fatal(err)
	}
	stCfg := storage.Config{Objects: 3, Readers: 1}
	st, err := storage.New(stCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []livenessModel{
		{name: "liveness-trap-4", p: trap, prop: trapProp},
		{name: "storage-31", p: st, prop: storage.ReadsComplete(stCfg)},
	} {
		var base *explore.Result
		for i := 0; i < 8; i++ {
			res, err := explore.NDFS(m.p, explore.Options{Property: m.prop})
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = res
				continue
			}
			sameLasso(t, m.name, res, base)
		}
	}
}

// TestNDFSLimits checks the limit plumbing: a state bound and a time bound
// must surface as VerdictLimit, and depth-cut runs must not crash the red
// sweep's memo-miss path.
func TestNDFSLimits(t *testing.T) {
	cfg := paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1}
	p, err := paxos.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prop := paxos.Decides(cfg)
	res, err := explore.NDFS(p, explore.Options{Property: prop, MaxStates: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != explore.VerdictLimit {
		t.Errorf("MaxStates: verdict %s, want Limit", res.Verdict)
	}
	if res.Stats.States != 100 {
		t.Errorf("MaxStates: explored %d states, want exactly 100", res.Stats.States)
	}
	res, err = explore.NDFS(p, explore.Options{Property: prop, MaxDuration: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict == explore.VerdictVerified && res.Stats.Duration > time.Second {
		t.Errorf("MaxDuration: verdict %s after %v", res.Verdict, res.Stats.Duration)
	}
	exp, err := por.NewExpander(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{1, 3, 7} {
		res, err := explore.NDFS(p, explore.Options{Property: prop, Expander: exp, MaxDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict == explore.VerdictVerified {
			t.Errorf("MaxDepth %d: verdict %s, want Limit or CE", depth, res.Verdict)
		}
	}
}

// TestNDFSRequiresProperty pins the engine's option validation.
func TestNDFSRequiresProperty(t *testing.T) {
	p, _, err := mptest.LivenessTrap(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := explore.NDFS(p, explore.Options{}); err == nil {
		t.Error("NDFS without Property: want error")
	}
}

// TestNDFSUnderSymmetryReplaysOnBlueRepresentative is the regression test
// for the red sweep's event replay: under a symmetry canon the red sweep
// may reach a product state through another representative of its orbit
// than the one the blue search expanded, and replaying the blue search's
// memoized events on that other representative failed with "message … not
// pending". The replay runs on the representative the events were enabled
// in, so every run must succeed, and repeated runs must be bit-identical.
// The runs are bounded by MaxStates, which cuts the walk at a
// deterministic point.
func TestNDFSUnderSymmetryReplaysOnBlueRepresentative(t *testing.T) {
	for _, tc := range []struct {
		cfg       paxos.Config
		maxStates int
	}{
		{paxos.Config{Proposers: 1, Acceptors: 3, Learners: 1}, 60},
		{paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1}, 1000},
	} {
		px, err := paxos.New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		prop := paxos.Decides(tc.cfg)
		p, err := liveness.Instrument(px, prop)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := symmetry.New(p.N, tc.cfg.Roles())
		if err != nil {
			t.Fatal(err)
		}
		exp, err := por.NewExpander(p)
		if err != nil {
			t.Fatal(err)
		}
		xo := explore.Options{Property: prop, Expander: exp, Canon: canon.Canon, MaxStates: tc.maxStates}
		ref, err := explore.NDFS(p, xo)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		res, err := explore.NDFS(p, xo)
		if err != nil {
			t.Fatalf("%s rerun: %v", p.Name, err)
		}
		sameLasso(t, p.Name, res, ref)
	}
}

package dpor

import (
	"strings"
	"testing"
	"time"

	"mpbasset/internal/core"
	"mpbasset/internal/explore"
	"mpbasset/internal/mptest"
	"mpbasset/internal/protocols/multicast"
	"mpbasset/internal/protocols/paxos"
	"mpbasset/internal/protocols/storage"
)

// compare runs full stateless search and DPOR on the same protocol and
// checks the DPOR guarantees: identical verdicts and identical
// deadlock-state sets (here: counts of distinct terminal states, obtained
// from a stateful full search since stateless runs count revisits), with
// DPOR never visiting more nodes than the full stateless search. opts bounds
// every run.
func compare(t *testing.T, p *core.Protocol, opts explore.Options) {
	t.Helper()
	full, err := explore.StatelessDFS(p, opts)
	if err != nil {
		t.Fatalf("%s stateless: %v", p.Name, err)
	}
	red, err := Explore(p, opts)
	if err != nil {
		t.Fatalf("%s dpor: %v", p.Name, err)
	}
	if full.Verdict == explore.VerdictLimit {
		// The unreduced stateless baseline hit its bound (revisit explosion
		// — the very thing Table I shows); nothing to compare against.
		return
	}
	if full.Verdict != red.Verdict {
		t.Errorf("%s: verdict mismatch: stateless %s, DPOR %s", p.Name, full.Verdict, red.Verdict)
	}
	if full.Verdict != explore.VerdictVerified {
		// Counterexample searches stop at the first bug; node counts and
		// deadlock sets are incomparable across exploration orders.
		return
	}
	if red.Stats.States > full.Stats.States {
		t.Errorf("%s: DPOR visited more nodes (%d) than full stateless (%d)", p.Name, red.Stats.States, full.Stats.States)
	}
	// Deadlock preservation: compare distinct terminal states against a
	// stateful reference.
	ref, err := explore.DFS(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := DeadlockStates(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != ref.Stats.Deadlocks {
		t.Errorf("%s: DPOR reached %d distinct deadlock states, reference has %d", p.Name, len(dist), ref.Stats.Deadlocks)
	}
}

func TestDPORMatchesStatelessOnRandomProtocols(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		for _, thr := range []int{0, 2} {
			p, err := mptest.Random(mptest.GenConfig{Seed: seed, Threshold: thr})
			if err != nil {
				t.Fatal(err)
			}
			compare(t, p, explore.Options{MaxDuration: time.Minute})
		}
	}
}

func TestDPORRejectsQuorumModels(t *testing.T) {
	p, err := paxos.New(paxos.Config{Proposers: 1, Acceptors: 3, Learners: 1, Model: paxos.ModelQuorum})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Explore(p, explore.Options{})
	if err == nil {
		t.Fatal("DPOR must reject quorum models (as Basset does)")
	}
	if !strings.Contains(err.Error(), "-model single") {
		t.Errorf("quorum rejection %q does not name the -model single spelling", err)
	}
}

// TestDPORTraceReplayVerifiesStateKeys pins the counterexample on the
// paper's deliberately wrong storage specification: the trace replays to a
// state that genuinely violates the invariant, every step records the
// post-step state key, and a mangled key is caught by explore.Replay's
// canon cross-check instead of slipping through with nothing to verify.
func TestDPORTraceReplayVerifiesStateKeys(t *testing.T) {
	p := newStorage(t, storage.Config{Objects: 3, Readers: 2, WrongRegularity: true, Model: storage.ModelSingle})
	res, err := Explore(p, explore.Options{MaxDuration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != explore.VerdictViolated || len(res.Trace) == 0 {
		t.Fatalf("expected a violation with a trace, got %s (trace %d)", res.Verdict, len(res.Trace))
	}
	if _, err := explore.ReplayViolation(p, res.Trace, nil); err != nil {
		t.Fatalf("genuine DPOR trace rejected: %v", err)
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

// The bundled-model tests run in two sizes. The always-on slice uses the
// (2,1) storage model, whose full stateless search is 27k nodes, and bounds
// every run by alwaysOn's MaxStates — a deterministic cut no run here
// reaches. The full-size versions (long_test.go, build tag long, `make
// test-long`) keep the (3,1) model, whose stateless and sleep-free searches
// outlast a one-minute wall-clock budget.
var (
	smallStorage = storage.Config{Objects: 2, Readers: 1, Model: storage.ModelSingle, Writes: 1}
	alwaysOn     = explore.Options{MaxStates: 1_000_000}
)

func newStorage(t *testing.T, cfg storage.Config) *core.Protocol {
	t.Helper()
	p, err := storage.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// compareBundledSingleModels runs compare on the bundled single-message
// models, with the storage model at the given size.
func compareBundledSingleModels(t *testing.T, st storage.Config, opts explore.Options) {
	t.Helper()
	px, err := paxos.New(paxos.Config{Proposers: 1, Acceptors: 3, Learners: 1, Model: paxos.ModelSingle})
	if err != nil {
		t.Fatal(err)
	}
	compare(t, px, opts)
	fp, err := paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1, Model: paxos.ModelSingle, Faulty: true})
	if err != nil {
		t.Fatal(err)
	}
	compare(t, fp, opts)
	mc, err := multicast.New(multicast.Config{HonestReceivers: 2, HonestInitiators: 1, ByzantineInitiators: 1, Model: multicast.ModelSingle})
	if err != nil {
		t.Fatal(err)
	}
	compare(t, mc, opts)
	compare(t, newStorage(t, st), opts)
}

func TestDPOROnBundledSingleModels(t *testing.T) {
	compareBundledSingleModels(t, smallStorage, alwaysOn)
}

// dporReducesWork asserts that on a genuinely concurrent protocol DPOR
// visits strictly fewer nodes than full stateless search.
func dporReducesWork(t *testing.T, p *core.Protocol, opts explore.Options) {
	t.Helper()
	full, err := explore.StatelessDFS(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	red, err := Explore(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if red.Stats.States >= full.Stats.States {
		t.Errorf("DPOR visited %d nodes, full stateless %d — no reduction", red.Stats.States, full.Stats.States)
	}
}

func TestDPORReducesWork(t *testing.T) {
	// A bundled model where the effect is unambiguous.
	dporReducesWork(t, newStorage(t, smallStorage), alwaysOn)
}

func TestSleepSetsPreserveResults(t *testing.T) {
	// Sleep sets must not change verdicts or lose deadlock states, only
	// reduce node visits.
	for seed := int64(0); seed < 80; seed++ {
		p, err := mptest.Random(mptest.GenConfig{Seed: seed, Threshold: 2})
		if err != nil {
			t.Fatal(err)
		}
		with, err := ExploreWith(p, explore.Options{MaxDuration: time.Minute}, Config{SleepSets: true})
		if err != nil {
			t.Fatal(err)
		}
		without, err := ExploreWith(p, explore.Options{MaxDuration: time.Minute}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if with.Verdict != without.Verdict {
			t.Errorf("seed %d: verdict %s (sleep) vs %s (plain)", seed, with.Verdict, without.Verdict)
		}
		if with.Verdict == explore.VerdictVerified && with.Stats.States > without.Stats.States {
			t.Errorf("seed %d: sleep sets increased nodes %d > %d", seed, with.Stats.States, without.Stats.States)
		}
	}
}

// sleepSetsReduceVisits asserts that sleep sets strictly reduce DPOR's node
// visits on p.
func sleepSetsReduceVisits(t *testing.T, p *core.Protocol, opts explore.Options) {
	t.Helper()
	with, err := ExploreWith(p, opts, Config{SleepSets: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := ExploreWith(p, opts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if with.Stats.States >= without.Stats.States {
		t.Errorf("sleep sets gave no reduction: %d vs %d", with.Stats.States, without.Stats.States)
	}
}

func TestSleepSetsReduceVisits(t *testing.T) {
	sleepSetsReduceVisits(t, newStorage(t, smallStorage), alwaysOn)
}

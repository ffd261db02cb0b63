// Package suite holds what the untraced benchmark (package main in the
// parent directory) and the traced run (../layers) share: the five
// workloads with their pinned answers, the statistics helpers and the
// result-file schema. It reaches the checker only through the public
// facade (mpbasset.Check) and the bundled protocol constructors, so a
// refactor of the engines, stores or core cannot break it.
package suite

import (
	"fmt"
	"math/rand"

	"mpbasset"
	"mpbasset/internal/protocols/multicast"
	"mpbasset/internal/protocols/paxos"
	"mpbasset/internal/protocols/storage"
)

// Procs is the GOMAXPROCS every run pins and the worker count of the
// parallel workloads: the reference machine has two cores.
const Procs = 2

// Pin is the answer a check must reproduce: verdict, distinct states,
// executed events and, for counterexamples, the trace length. The values
// come from verified runs of the checkout that added the benchmark, never
// from the run being measured.
type Pin struct {
	Verdict mpbasset.Verdict
	States  int
	Events  int
	Trace   int
}

// Check is one model-checking problem of a workload.
type Check struct {
	ID string
	// Build makes a fresh protocol and the options to check it with; it is
	// called once per run of the check, so no state survives between reps.
	Build func() (*mpbasset.Protocol, mpbasset.Options, error)
	Pin   Pin
}

// Workload is a named set of checks. One rep is one pass over Checks.
type Workload struct {
	Name string
	// Why is the one-line reason BENCHMARK.json records.
	Why string
	// Reps is the rep count of a full session (`go run .` without
	// -workload); a driver run is sized by -seconds instead.
	Reps   int
	Checks []Check
}

// States is the number of distinct states one rep visits.
func (w *Workload) States() int {
	n := 0
	for _, c := range w.Checks {
		n += c.Pin.States
	}
	return n
}

// Ordered returns the checks in the order the seed selects. The models are
// deterministic, so the order of a multi-check workload is the only input
// a seed can vary.
func (w *Workload) Ordered(seed int64) []Check {
	cs := append([]Check(nil), w.Checks...)
	rand.New(rand.NewSource(seed)).Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs
}

// Verify compares a result with the pin and describes the first difference.
func (p Pin) Verify(res *mpbasset.Result) error {
	got := Pin{Verdict: res.Verdict, States: res.Stats.States, Events: res.Stats.Events, Trace: len(res.Trace)}
	if got != p {
		return fmt.Errorf("got %v states=%d events=%d trace=%d, pinned %v states=%d events=%d trace=%d",
			got.Verdict, got.States, got.Events, got.Trace, p.Verdict, p.States, p.Events, p.Trace)
	}
	return nil
}

// ByName finds a workload.
func ByName(name string) (*Workload, bool) {
	for i := range Workloads {
		if Workloads[i].Name == name {
			return &Workloads[i], true
		}
	}
	return nil, false
}

// build returns a Check.Build that makes a fresh protocol from cfg and pairs
// it with opts.
func build[C any](newProtocol func(C) (*mpbasset.Protocol, error), cfg C, opts mpbasset.Options) func() (*mpbasset.Protocol, mpbasset.Options, error) {
	return func() (*mpbasset.Protocol, mpbasset.Options, error) {
		p, err := newProtocol(cfg)
		return p, opts, err
	}
}

var (
	paxos232  = paxos.Config{Proposers: 2, Acceptors: 3, Learners: 2}
	paxos231  = paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1}
	paxos231s = paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1, Model: paxos.ModelSingle}
	fpaxos    = paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1, Faulty: true}
	fpaxosS   = paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1, Faulty: true, Model: paxos.ModelSingle}
	mc3111    = multicast.Config{HonestReceivers: 3, HonestInitiators: 1, ByzantineReceivers: 1, ByzantineInitiators: 1}
	mc2121    = multicast.Config{HonestReceivers: 2, HonestInitiators: 1, ByzantineReceivers: 2, ByzantineInitiators: 1}

	verified = mpbasset.VerdictVerified
	violated = mpbasset.VerdictViolated
	limit    = mpbasset.VerdictLimit
)

// Workloads is the benchmark. Names, models and pins are fixed: a change
// that is measured with the benchmark does not edit them. No tuning option
// (ChunkSize, BatchSize, StealDepth, Compress, Lossy) is set, so the
// workloads survive the removal of any of them.
var Workloads = []Workload{
	{
		Name: "paxos-quorum-spor",
		Why:  "Paxos(2,3,2) quorum model under static POR, exhaustive: quorum enumeration in core.Enabled and por.Expand dominate, the store is about 5%",
		Reps: 10,
		Checks: []Check{{
			ID:    "paxos232-spor",
			Build: build(paxos.New, paxos232, mpbasset.Options{Search: mpbasset.SearchSPOR}),
			Pin:   Pin{verified, 57082, 165639, 0},
		}},
	},
	{
		Name: "storage-single-unreduced",
		Why:  "RegularStorage(4,1) single-message model, unreduced DFS to 100k states: bypasses por, 5.3 store probes per state, key building + Execute + store dominate",
		Reps: 8,
		Checks: []Check{{
			ID: "storage41-unreduced",
			Build: build(storage.New, storage.Config{Objects: 4, Readers: 1, Model: storage.ModelSingle},
				mpbasset.Options{Search: mpbasset.SearchUnreduced, MaxStates: 100000}),
			Pin: Pin{limit, 100000, 532840, 0},
		}},
	},
	{
		Name: "small-suite",
		Why:  "13 small checks covering refine, symmetry, liveness/NDFS, DPOR, BFS parent tracking and counterexample extraction: fixed per-check and set-up costs show only here",
		Reps: 8,
		Checks: []Check{
			{"mc-unsplit", build(multicast.New, mc3111, mpbasset.Options{Search: mpbasset.SearchSPOR}), Pin{verified, 2050, 8008, 0}},
			{"mc-reply", build(multicast.New, mc3111, mpbasset.Options{Search: mpbasset.SearchSPOR, Split: mpbasset.SplitReply}), Pin{verified, 1348, 4608, 0}},
			{"mc-quorum", build(multicast.New, mc3111, mpbasset.Options{Search: mpbasset.SearchSPOR, Split: mpbasset.SplitQuorum}), Pin{verified, 2050, 8008, 0}},
			{"mc-combined", build(multicast.New, mc3111, mpbasset.Options{Search: mpbasset.SearchSPOR, Split: mpbasset.SplitCombined}), Pin{verified, 1348, 4608, 0}},
			{"mc-combined-sym", func() (*mpbasset.Protocol, mpbasset.Options, error) {
				p, err := multicast.New(mc3111)
				return p, mpbasset.Options{Search: mpbasset.SearchSPOR, Split: mpbasset.SplitCombined, SymmetryRoles: mc3111.Roles()}, err
			}, Pin{verified, 852, 2890, 0}},
			{"mc-wrong", build(multicast.New, mc2121, mpbasset.Options{Search: mpbasset.SearchSPOR}), Pin{violated, 20, 19, 17}},
			{"fpaxos-spor", build(paxos.New, fpaxos, mpbasset.Options{Search: mpbasset.SearchSPOR}), Pin{violated, 181, 312, 15}},
			{"fpaxos-bfs", build(paxos.New, fpaxos, mpbasset.Options{Search: mpbasset.SearchBFS, TrackTrace: true}), Pin{violated, 3384, 8529, 11}},
			{"fpaxos-dpor", build(paxos.New, fpaxosS, mpbasset.Options{Search: mpbasset.SearchDPOR}), Pin{violated, 7299, 7298, 20}},
			{"paxos-dpor-20k", build(paxos.New, paxos231s, mpbasset.Options{Search: mpbasset.SearchDPOR, MaxStates: 20000}), Pin{limit, 20000, 19999, 0}},
			{"storage-wrong", build(storage.New, storage.Config{Objects: 3, Readers: 2, WrongRegularity: true}, mpbasset.Options{Search: mpbasset.SearchSPOR}), Pin{violated, 16712, 44288, 19}},
			{"paxos-sym", func() (*mpbasset.Protocol, mpbasset.Options, error) {
				p, err := paxos.New(paxos231)
				return p, mpbasset.Options{Search: mpbasset.SearchSPOR, SymmetryRoles: paxos231.Roles()}, err
			}, Pin{verified, 4254, 11772, 0}},
			{"paxos-ndfs", func() (*mpbasset.Protocol, mpbasset.Options, error) {
				p, err := paxos.New(paxos231)
				return p, mpbasset.Options{Search: mpbasset.SearchSPOR, Property: paxos.Decides(paxos231)}, err
			}, Pin{verified, 23152, 169295, 0}},
		},
	},
	{
		Name: "paxos-quorum-spor-par2",
		Why:  "the paxos-quorum-spor model with Workers 2: the speculate-and-commit kernel shared by ParallelDFS, ParallelNDFS and parallel DPOR, against its sequential twin",
		Reps: 8,
		Checks: []Check{{
			ID:    "paxos232-spor-par2",
			Build: build(paxos.New, paxos232, mpbasset.Options{Search: mpbasset.SearchSPOR, Workers: Procs}),
			Pin:   Pin{verified, 57082, 165639, 0},
		}},
	},
	{
		Name: "paxos-quorum-bfs-par2",
		Why:  "Paxos(2,3,2) quorum model, BFS with Workers 2: level-synchronous frontier, sharded store with batched inserts, queue proviso, no por",
		Reps: 8,
		Checks: []Check{{
			ID:    "paxos232-bfs-par2",
			Build: build(paxos.New, paxos232, mpbasset.Options{Search: mpbasset.SearchBFS, Workers: Procs}),
			Pin:   Pin{verified, 69433, 256715, 0},
		}},
	},
}

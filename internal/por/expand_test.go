package por

import (
	"fmt"
	"sync"
	"testing"

	"mpbasset/internal/core"
	"mpbasset/internal/explore"
	"mpbasset/internal/mptest"
	"mpbasset/internal/protocols/multicast"
	"mpbasset/internal/protocols/paxos"
	"mpbasset/internal/protocols/storage"
	"mpbasset/internal/refine"
)

// expanderModes are the closure configurations the differential test
// crosses every model with: the default, the three exported switches and
// the unsound test-only backdoor.
var expanderModes = []struct {
	name string
	set  func(*Expander)
}{
	{"default", func(*Expander) {}},
	{"best-seed", func(e *Expander) { e.BestSeed = true }},
	{"no-NET", func(e *Expander) { e.DisableNET = true }},
	{"no-uniqueness", func(e *Expander) { e.DisableUniqueness = true }},
	{"drop-growth-feeders", func(e *Expander) { e.dropGrowthFeeders = true }},
}

// walkStates calls f with every reachable state of p, breadth-first and at
// most maxStates of them, and the state's enabled events. It returns the
// number of states visited.
func walkStates(t testing.TB, p *core.Protocol, maxStates int, f func(s *core.State, enabled []core.Event)) int {
	t.Helper()
	init, err := p.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{init.Key(): true}
	queue := []*core.State{init}
	visited := 0
	for ; len(queue) > 0; visited++ {
		s := queue[0]
		queue = queue[1:]
		enabled := p.Enabled(s)
		f(s, enabled)
		for _, ev := range enabled {
			ns, err := p.Execute(s, ev)
			if err != nil {
				t.Fatalf("%s: execute %s: %v", p.Name, ev, err)
			}
			if len(seen) < maxStates && !seen[ns.Key()] {
				seen[ns.Key()] = true
				queue = append(queue, ns)
			}
		}
	}
	return visited
}

// walkBound scales down the state bound of a sequential differential walk
// under -short and under the race detector, which has nothing to find in it.
func walkBound(states int) int {
	if testing.Short() || raceEnabled {
		return states / 10
	}
	return states
}

// sameEvents reports whether two event slices hold the same events in the
// same order. Expand only ever selects among the events it was handed, so
// transition and message-slice identity decide it.
func sameEvents(a, b []core.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || len(a[i].Msgs) != len(b[i].Msgs) ||
			(len(a[i].Msgs) > 0 && &a[i].Msgs[0] != &b[i].Msgs[0]) {
			return false
		}
	}
	return true
}

// assertExpandMatchesOracle requires Expand to return, on every state the
// walk reaches and under every mode, exactly what the map-based reference
// closure returns.
func assertExpandMatchesOracle(t *testing.T, p *core.Protocol, maxStates int) (states, reduced int) {
	t.Helper()
	a, err := NewAnalysis(p)
	if err != nil {
		t.Fatal(err)
	}
	exps := make([]*Expander, len(expanderModes))
	oracles := make([]*oracleExpander, len(expanderModes))
	for m, mode := range expanderModes {
		exps[m] = NewExpanderFromAnalysis(a)
		mode.set(exps[m])
		oracles[m] = newOracleExpander(exps[m])
	}
	states = walkStates(t, p, maxStates, func(s *core.State, enabled []core.Event) {
		for m, mode := range expanderModes {
			got, want := exps[m].Expand(s, enabled, nil), oracles[m].expand(s, enabled)
			if !sameEvents(got, want) {
				t.Fatalf("%s (%s) at %s:\n got %v\nwant %v", p.Name, mode.name, s, got, want)
			}
			if len(got) < len(enabled) {
				reduced++
			}
		}
	})
	return states, reduced
}

func TestExpandMatchesOracleOnBundledProtocols(t *testing.T) {
	bases := []*core.Protocol{}
	add := func(p *core.Protocol, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, p)
	}
	add(paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1}))
	add(multicast.New(multicast.Config{HonestReceivers: 3, HonestInitiators: 1, ByzantineReceivers: 1, ByzantineInitiators: 1}))
	add(storage.New(storage.Config{Objects: 3, Readers: 1}))
	maxStates := walkBound(30000) // every state of each model when unbounded
	for _, base := range bases {
		for _, strat := range []refine.Strategy{refine.None, refine.Combined} {
			p, err := refine.Split(base, strat)
			if err != nil {
				t.Fatal(err)
			}
			states, reduced := assertExpandMatchesOracle(t, p, maxStates)
			if reduced == 0 {
				t.Errorf("%s/%s: no reduced expansion among %d states, the comparison is vacuous", p.Name, strat, states)
			}
			t.Logf("%s/%s: %d transitions, %d states, %d reduced expansions", p.Name, strat, len(p.Transitions), states, reduced)
		}
	}
}

// TestExpandMatchesOracleMultiWord runs the comparison on a model with more
// than 64 transitions — no bundled bench model has — so rows, closures and
// the scratch span two words.
func TestExpandMatchesOracleMultiWord(t *testing.T) {
	base, err := paxos.New(paxos.Config{Proposers: 3, Acceptors: 5, Learners: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := refine.Split(base, refine.Combined)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if len(p.Transitions) <= 64 {
		t.Fatalf("%d transitions, want more than 64", len(p.Transitions))
	}
	if _, reduced := assertExpandMatchesOracle(t, p, walkBound(2000)); reduced == 0 {
		t.Error("no reduced expansion, the comparison is vacuous")
	}
}

// TestStubbornClosureCrossesWords closes a stubborn set along a chain that
// alternates between the two words of a 70-transition universe: the seed S
// (index 0) conflicts with M1 (index 69), whose only feeder is M2 (index
// 1), whose only feeder is M3 (index 68), … down to the enabled E. The
// fixed point must walk back to a lower word every other step; cut short,
// S alone looks like a valid ample set, where the full closure reaches E
// and leaves {E} as the only reduction.
func TestStubbornClosureCrossesWords(t *testing.T) {
	const n = 70
	index := func(k int) int { // position in the chain -> transition index
		if k%2 == 0 {
			return k / 2
		}
		return n - 1 - k/2
	}
	typ := func(k int) string { return fmt.Sprint("T", k) }
	ts := make([]*core.Transition, n)
	// Mk runs on process k (S shares process 1 with M1), waits for typ(k)
	// from process k+1 and sends typ(k-1) to process k-1; E ends the chain.
	ts[index(0)] = &core.Transition{Name: "S", Proc: 1}
	for k := 1; k < n-1; k++ {
		ts[index(k)] = &core.Transition{Name: fmt.Sprint("M", k), Proc: core.ProcessID(k), MsgType: typ(k), Quorum: 1,
			Peers: []core.ProcessID{core.ProcessID(k + 1)},
			Sends: []core.SendSpec{{Type: typ(k - 1), To: []core.ProcessID{core.ProcessID(k - 1)}}}}
	}
	ts[index(n-1)] = &core.Transition{Name: "E", Proc: n - 1,
		Sends: []core.SendSpec{{Type: typ(n - 2), To: []core.ProcessID{n - 2}}}}
	p := &core.Protocol{Name: "zigzag", N: n, Transitions: ts, Init: func() []core.LocalState {
		locals := make([]core.LocalState, n)
		for i := range locals {
			locals[i] = &mptest.Local{}
		}
		return locals
	}}
	assertExpandMatchesOracle(t, p, 10)
	exp, err := NewExpander(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	if got := exp.Expand(s, p.Enabled(s), nil); len(got) != 1 || got[0].T.Name != "E" {
		t.Fatalf("Expand = %v, want E alone", got)
	}
}

func TestExpandMatchesOracleOnGeneratedProtocols(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		for _, cfg := range []mptest.GenConfig{
			{Seed: seed, Quorums: true, Cycles: true, Threshold: 1},
			{Seed: seed, Quorums: true, Cycles: true, RingSize: 3, CyclePriority: 3},
			{Seed: seed, Quorums: true, AnyQuorums: true, Threshold: 2},
		} {
			p, err := mptest.Random(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertExpandMatchesOracle(t, p, 5000)
		}
	}
}

// TestNETFallsBackToAllFeeders pins the edge the deleted
// core.MissingSenders hid behind one nil: a disabled member whose quorum is
// structurally short pulls in *all* its feeders both when its peers are
// unrestricted and when no peer is missing (every peer has a candidate
// pending and the quorum still cannot be met), and the feeders of the
// missing senders only in between.
func TestNETFallsBackToAllFeeders(t *testing.T) {
	locals := func() []core.LocalState {
		return []core.LocalState{&mptest.Local{}, &mptest.Local{}, &mptest.Local{}, &mptest.Local{}}
	}
	send := func(proc core.ProcessID) *core.Transition {
		return &core.Transition{Name: "SEND", Proc: proc,
			Sends: []core.SendSpec{{Type: "Q", To: []core.ProcessID{3}}}}
	}
	for _, c := range []struct {
		name    string
		peers   []core.ProcessID
		pending []core.ProcessID
		want    string
	}{
		{"nil peers", nil, []core.ProcessID{1}, "[0 1 2]"},
		{"peers 0 and 2 missing", []core.ProcessID{0, 1, 2}, []core.ProcessID{1}, "[0 2]"},
		{"no peer missing", []core.ProcessID{1, 1}, []core.ProcessID{1}, "[1]"},
	} {
		collect := &core.Transition{Name: "COLLECT", Proc: 3, MsgType: "Q", Quorum: 2, Peers: c.peers}
		p := &core.Protocol{Name: "net-" + c.name, N: 4, Init: locals,
			Transitions: []*core.Transition{send(0), send(1), send(2), collect}}
		exp, err := NewExpander(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.InitialState()
		if err != nil {
			t.Fatal(err)
		}
		bag := core.NewBag()
		for _, q := range c.pending {
			bag.Add(core.Message{From: q, To: 3, Type: "Q"})
		}
		s = core.NewState(s.Locals, bag)
		if p.StructurallyEnabled(collect, s) {
			t.Fatalf("%s: COLLECT must be structurally disabled", c.name)
		}
		got := rowOf(exp, s, collect.Index(), false)
		if fmt.Sprint(got) != c.want {
			t.Errorf("%s: NET of COLLECT = %v, want %s", c.name, got, c.want)
		}
		if want := newOracleExpander(exp).net(collect.Index(), s); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: NET of COLLECT = %v, reference %v", c.name, got, want)
		}
	}
}

// rowOf returns, ascending, the transitions member i pulls into a stubborn
// set at s, as an enabled or a disabled member.
func rowOf(exp *Expander, s *core.State, i int, enabled bool) []int {
	sc := exp.a.getScratch()
	defer scratchPool.Put(sc)
	if enabled {
		sc.enabled.set(i)
	}
	var out []int
	for j, row := 0, exp.row(sc, i, s); j < len(exp.a.p.Transitions); j++ {
		if row.has(j) {
			out = append(out, j)
		}
	}
	return out
}

// TestContributingFeederThatConflictsStays pins the order of the enabled
// member's row: the feeders of senders that already contribute are dropped
// from the feeders only, never from the conflicts. Here FEED both feeds
// COLLECT (a process may send to itself) and shares its process.
func TestContributingFeederThatConflictsStays(t *testing.T) {
	feed := &core.Transition{Name: "FEED", Proc: 0, Sends: []core.SendSpec{{Type: "Q", To: []core.ProcessID{0}}}}
	other := &core.Transition{Name: "OTHER", Proc: 1, Sends: []core.SendSpec{{Type: "Q", To: []core.ProcessID{0}}}}
	collect := &core.Transition{Name: "COLLECT", Proc: 0, MsgType: "Q", Quorum: 1, UniquePerSender: true}
	p := &core.Protocol{Name: "self-feed", N: 2, Transitions: []*core.Transition{feed, other, collect},
		Init: func() []core.LocalState { return []core.LocalState{&mptest.Local{}, &mptest.Local{}} }}
	exp, err := NewExpander(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		from core.ProcessID
		want string
	}{
		{0, "[0 1]"}, // FEED's sender contributes: FEED stays as a conflict
		{1, "[0]"},   // OTHER's sender contributes: OTHER cannot add a second candidate
	} {
		bag := core.NewBag()
		bag.Add(core.Message{From: c.from, To: 0, Type: "Q"})
		if got := rowOf(exp, core.NewState(s.Locals, bag), collect.Index(), true); fmt.Sprint(got) != c.want {
			t.Errorf("candidate from %d: row of COLLECT = %v, want %s", c.from, got, c.want)
		}
	}
}

// expandCorpus returns the first n states a DFS of the Paxos(2,3,2) quorum
// model expands (the bench's paxos-quorum-spor model) with their enabled
// events, and an expander for it.
func expandCorpus(tb testing.TB, n int) (*Expander, []*core.State, [][]core.Event) {
	tb.Helper()
	p, err := paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 2})
	if err != nil {
		tb.Fatal(err)
	}
	exp, err := NewExpander(p)
	if err != nil {
		tb.Fatal(err)
	}
	rec := &recorder{}
	if _, err := explore.DFS(p, explore.Options{Expander: rec, MaxStates: n}); err != nil {
		tb.Fatal(err)
	}
	if len(rec.states) < n/2 {
		tb.Fatalf("corpus has %d states, want about %d", len(rec.states), n)
	}
	return exp, rec.states, rec.enabled
}

// recorder is an explore.Expander that reduces nothing and remembers what
// it was asked to expand.
type recorder struct {
	states  []*core.State
	enabled [][]core.Event
}

func (r *recorder) Expand(s *core.State, enabled []core.Event, _ explore.Proviso) []core.Event {
	r.states = append(r.states, s)
	r.enabled = append(r.enabled, enabled)
	return enabled
}

// TestExpandAllocations pins what Expand costs the heap: nothing when it
// returns enabled unchanged, the returned subset — the engines retain
// enabled for proviso promotion, so it cannot be filtered in place — when
// it reduces.
func TestExpandAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	exp, states, enabled := expandCorpus(t, 500)
	var out []core.Event
	seen := [2]bool{}
	for i, s := range states {
		want := 0
		if len(exp.Expand(s, enabled[i], nil)) < len(enabled[i]) {
			want = 1
		}
		if seen[want] && i%16 != 0 { // every kind at least once, then a sample
			continue
		}
		seen[want] = true
		if got := testing.AllocsPerRun(20, func() { out = exp.Expand(s, enabled[i], nil) }); got != float64(want) {
			t.Fatalf("state %d (%d of %d events kept): %v allocations per Expand, want %d", i, len(out), len(enabled[i]), got, want)
		}
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("corpus lacks a full (%v) or a reduced (%v) expansion", seen[0], seen[1])
	}
}

// TestExpandConcurrent shares one Expander between goroutines, as the
// ParallelBFS workers do, and requires each to see the sequential results.
func TestExpandConcurrent(t *testing.T) {
	exp, states, enabled := expandCorpus(t, 2000)
	want := make([][]core.Event, len(states))
	for i, s := range states {
		want[i] = exp.Expand(s, enabled[i], nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range states {
				i := (k + g*len(states)/4) % len(states) // each goroutine its own phase
				if got := exp.Expand(states[i], enabled[i], nil); !sameEvents(got, want[i]) {
					t.Errorf("goroutine %d, state %d:\n got %v\nwant %v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

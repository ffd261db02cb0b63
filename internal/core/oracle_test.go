package core_test

// The map-based multiset and the recursive quorum enumeration core used
// before Bag became a key-sorted slice, and the from-scratch state key and
// clone-and-mutate successor construction it used before successors were
// built from their parent's delta, kept as test oracles: the model test
// drives random operation sequences through both bag representations, the
// differential test compares Enabled event by event, and every state key
// and successor, on every reachable state of real models. The oracles go
// through the exported API only (ExecuteByCloning is the old Execute, in
// export_test.go) and never read a cached key: fresh rebuilds every message
// from its fields, freshStateKey asks every local state for its key again.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mpbasset/internal/core"
	"mpbasset/internal/explore"
	"mpbasset/internal/mptest"
	"mpbasset/internal/protocols/multicast"
	"mpbasset/internal/protocols/paxos"
	"mpbasset/internal/protocols/storage"
	"mpbasset/internal/refine"
	"mpbasset/internal/symmetry"
)

// fresh returns m as a new literal, so its Key is computed from the fields.
func fresh(m core.Message) core.Message {
	return core.Message{From: m.From, To: m.To, Type: m.Type, Payload: m.Payload}
}

type oracleEntry struct {
	msg core.Message
	n   int
}

type oracleBag struct {
	entries map[string]oracleEntry
	size    int
}

func newOracleBag() *oracleBag { return &oracleBag{entries: make(map[string]oracleEntry)} }

// oracleOf copies a real bag into the oracle representation.
func oracleOf(b *core.Bag) *oracleBag {
	o := newOracleBag()
	b.Each(func(m core.Message, n int) {
		for ; n > 0; n-- {
			o.add(m)
		}
	})
	return o
}

func (b *oracleBag) add(m core.Message) {
	m = fresh(m)
	e := b.entries[m.Key()]
	e.msg = m
	e.n++
	b.entries[m.Key()] = e
	b.size++
}

func (b *oracleBag) remove(m core.Message) bool {
	k := fresh(m).Key()
	e, ok := b.entries[k]
	if !ok {
		return false
	}
	if e.n == 1 {
		delete(b.entries, k)
	} else {
		e.n--
		b.entries[k] = e
	}
	b.size--
	return true
}

func (b *oracleBag) count(m core.Message) int { return b.entries[fresh(m).Key()].n }

func (b *oracleBag) clone() *oracleBag {
	nb := &oracleBag{entries: make(map[string]oracleEntry, len(b.entries)), size: b.size}
	for k, e := range b.entries {
		nb.entries[k] = e
	}
	return nb
}

func (b *oracleBag) key() string {
	keys := make([]string, 0, len(b.entries))
	for k := range b.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteByte(';')
		sb.WriteString(k)
		if n := b.entries[k].n; n > 1 {
			sb.WriteByte('*')
			sb.WriteString(strconv.Itoa(n))
		}
	}
	return sb.String()
}

// freshStateKey is the old State.Key: every local state stringified again,
// the bag key from the map-based multiset.
func freshStateKey(s *core.State) string {
	var sb strings.Builder
	for i, l := range s.Locals {
		if i > 0 {
			sb.WriteByte('|')
		}
		sb.WriteString(l.Key())
	}
	sb.WriteByte('#')
	sb.WriteString(oracleOf(s.Msgs).key())
	return sb.String()
}

// matchingBySender is the old Bag.MatchingBySender: the senders with a
// candidate, ascending numerically, and each sender's candidates by key.
func (b *oracleBag) matchingBySender(proc core.ProcessID, typ string, peers []core.ProcessID) ([]core.ProcessID, map[core.ProcessID][]core.Message) {
	var allowed map[core.ProcessID]bool
	if peers != nil {
		allowed = make(map[core.ProcessID]bool, len(peers))
		for _, p := range peers {
			allowed[p] = true
		}
	}
	bySender := make(map[core.ProcessID][]core.Message)
	for _, e := range b.entries {
		m := e.msg
		if m.To != proc || m.Type != typ {
			continue
		}
		if allowed != nil && !allowed[m.From] {
			continue
		}
		bySender[m.From] = append(bySender[m.From], m)
	}
	senders := make([]core.ProcessID, 0, len(bySender))
	for p, msgs := range bySender {
		sort.Slice(msgs, func(i, j int) bool { return msgs[i].Key() < msgs[j].Key() })
		senders = append(senders, p)
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
	return senders, bySender
}

// flatMatching is matchingBySender in the order AppendMatching promises.
func (b *oracleBag) flatMatching(proc core.ProcessID, typ string, peers []core.ProcessID) []string {
	senders, bySender := b.matchingBySender(proc, typ, peers)
	var out []string
	for _, q := range senders {
		for _, m := range bySender[q] {
			out = append(out, m.Key())
		}
	}
	return out
}

func guardOK(t *core.Transition, local core.LocalState, msgs []core.Message) bool {
	return t.LocalGuardOK(local) && (t.Guard == nil || t.Guard(local, msgs))
}

func sortFresh(msgs []core.Message) {
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].Key() < msgs[j].Key() })
}

// oracleEnabled is the old Protocol.Enabled: recursive sender combinations
// times per-sender alternatives over the map-based matching.
func oracleEnabled(p *core.Protocol, s *core.State) []core.Event {
	bag := oracleOf(s.Msgs)
	var out []core.Event
	for _, t := range p.Transitions {
		t := t
		local := s.Locals[t.Proc]
		if t.Spontaneous() {
			if guardOK(t, local, nil) {
				out = append(out, core.Event{T: t})
			}
			continue
		}
		if !t.LocalGuardOK(local) {
			continue
		}
		senders, bySender := bag.matchingBySender(t.Proc, t.MsgType, t.Peers)
		if t.Quorum == core.AnyQuorum {
			var all []core.Message
			for _, q := range senders {
				all = append(all, bySender[q]...)
			}
			sortFresh(all)
			for mask := 1; mask < 1<<len(all); mask++ {
				var x []core.Message
				for i := range all {
					if mask&(1<<i) != 0 {
						x = append(x, all[i])
					}
				}
				if guardOK(t, local, x) {
					out = append(out, core.Event{T: t, Msgs: x})
				}
			}
			continue
		}
		if len(senders) < t.Quorum {
			continue
		}
		combo := make([]core.ProcessID, t.Quorum)
		pick := make([]core.Message, t.Quorum)
		var cartesian func(d int)
		cartesian = func(d int) {
			if d == t.Quorum {
				x := append([]core.Message(nil), pick...)
				sortFresh(x)
				if guardOK(t, local, x) {
					out = append(out, core.Event{T: t, Msgs: x})
				}
				return
			}
			for _, m := range bySender[combo[d]] {
				pick[d] = m
				cartesian(d + 1)
			}
		}
		var rec func(start, depth int)
		rec = func(start, depth int) {
			if depth == t.Quorum {
				cartesian(0)
				return
			}
			for i := start; i <= len(senders)-(t.Quorum-depth); i++ {
				combo[depth] = senders[i]
				rec(i+1, depth+1)
			}
		}
		rec(0, 0)
	}
	return out
}

// oracleMatchingSenders requires Bag.AppendMatchingSenders to return the
// oracle's senders, each once: unlike the MissingSenders it replaced, whose
// nil meant both "unrestricted peers" and "no peer missing", an empty
// result only ever means that no allowed sender has a candidate.
func oracleMatchingSenders(bag *core.Bag, oracle *oracleBag, proc core.ProcessID, typ string, peers []core.ProcessID) error {
	want, _ := oracle.matchingBySender(proc, typ, peers)
	got := bag.AppendMatchingSenders(nil, proc, typ, peers)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] }) // key order is not numeric order
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("AppendMatchingSenders(%d, %s, %v) = %v, oracle %v", proc, typ, peers, got, want)
	}
	return nil
}

type intPayload int

func (p intPayload) Key() string { return strconv.Itoa(int(p)) }

func msgKeys(msgs []core.Message) []string {
	var out []string
	for _, m := range msgs {
		out = append(out, m.Key())
	}
	return out
}

// TestBagAgainstMapOracle drives random Add/Remove/Clone sequences through
// Bag and the map-based oracle. Sender IDs reach past 10 (numeric and key
// order of senders differ there), types include one that is a prefix of
// another, payloads include none, and the small domain forces
// multiplicities above one.
func TestBagAgainstMapOracle(t *testing.T) {
	froms := []core.ProcessID{0, 1, 2, 9, 10, 11, 12, 100}
	types := []string{"A", "AB", "B"}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randMsg := func() core.Message {
			m := core.Message{
				From: froms[rng.Intn(len(froms))],
				To:   core.ProcessID(rng.Intn(2)),
				Type: types[rng.Intn(len(types))],
			}
			if v := rng.Intn(3); v > 0 {
				m.Payload = intPayload(v)
			}
			return m
		}
		randPeers := func() []core.ProcessID {
			if rng.Intn(3) == 0 {
				return nil
			}
			peers := []core.ProcessID{}
			for _, i := range rng.Perm(len(froms))[:rng.Intn(len(froms))] {
				peers = append(peers, froms[i])
			}
			return peers
		}
		bag, oracle := core.NewBag(), newOracleBag()
		var pending []core.Message // what was added, to make removals hit
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				m := randMsg()
				bag.Add(m)
				oracle.add(m)
				pending = append(pending, m)
			case op < 8:
				m := randMsg()
				if len(pending) > 0 && rng.Intn(4) > 0 {
					m = pending[rng.Intn(len(pending))]
				}
				if got, want := bag.Remove(m), oracle.remove(m); got != want {
					t.Fatalf("seed %d step %d: Remove(%s) = %v, oracle %v", seed, step, m, got, want)
				}
			default:
				// Mutating either side of a Clone must leave the other's
				// key alone; the search continues on the clone.
				bagKey := bag.Key()
				nb, no := bag.Clone(), oracle.clone()
				m := randMsg()
				nb.Add(m)
				if bag.Key() != bagKey {
					t.Fatalf("seed %d step %d: adding to the clone changed the original", seed, step)
				}
				nb.Remove(m)
				for _, e := range pending {
					bag.Remove(e)
				}
				if nb.Key() != bagKey {
					t.Fatalf("seed %d step %d: emptying the original changed the clone:\n got %s\nwant %s", seed, step, nb.Key(), bagKey)
				}
				bag, oracle = nb, no
			}
			if got, want := bag.Key(), oracle.key(); got != want {
				t.Fatalf("seed %d step %d: Key\n got %s\nwant %s", seed, step, got, want)
			}
			if bag.Len() != oracle.size || bag.Distinct() != len(oracle.entries) {
				t.Fatalf("seed %d step %d: Len/Distinct = %d/%d, oracle %d/%d", seed, step,
					bag.Len(), bag.Distinct(), oracle.size, len(oracle.entries))
			}
			if m := randMsg(); bag.Count(m) != oracle.count(m) {
				t.Fatalf("seed %d step %d: Count(%s) = %d, oracle %d", seed, step, m, bag.Count(m), oracle.count(m))
			}
			proc, typ, peers := core.ProcessID(rng.Intn(2)), types[rng.Intn(len(types))], randPeers()
			got := msgKeys(bag.AppendMatching(nil, proc, typ, peers))
			want := oracle.flatMatching(proc, typ, peers)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: AppendMatching(%d, %s, %v)\n got %v\nwant %v", seed, step, proc, typ, peers, got, want)
			}
			senders, _ := oracle.matchingBySender(proc, typ, peers)
			if err := oracleMatchingSenders(bag, oracle, proc, typ, peers); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			for q := 0; q <= len(senders)+1; q++ {
				if bag.HasMatchingSenders(proc, typ, peers, q) != (len(senders) >= q) {
					t.Fatalf("seed %d step %d: HasMatchingSenders(%d, %s, %v, %d) disagrees with %d senders", seed, step, proc, typ, peers, q, len(senders))
				}
			}
		}
	}
}

// assertEnabledMatchesOracle walks the reachable states of p breadth-first,
// at most maxStates of them, and requires Enabled to return the oracle's
// event sequence — same transitions, same message sets, same order — and
// StructurallyEnabled / AppendMatchingSenders to agree with the oracle's
// matching.
// On the same walk, every state's Key and ComponentKeys must equal the
// from-scratch encoding, and every successor the one the clone-and-mutate
// Execute builds.
func assertEnabledMatchesOracle(t *testing.T, p *core.Protocol, maxStates int) {
	t.Helper()
	init, err := p.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{init.Key(): true}
	queue := []*core.State{init}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		assertKeysMatchOracle(t, p, s)
		got, want := p.Enabled(s), oracleEnabled(p, s)
		if len(got) != len(want) {
			t.Fatalf("%s at %s: %d events, oracle %d", p.Name, s, len(got), len(want))
		}
		for i := range got {
			if got[i].T != want[i].T || !reflect.DeepEqual(msgKeys(got[i].Msgs), msgKeys(want[i].Msgs)) {
				t.Fatalf("%s at %s: event %d is %s, oracle %s", p.Name, s, i, got[i], want[i])
			}
			if got[i].Key() != want[i].Key() {
				t.Fatalf("%s at %s: event %d has key %s, oracle %s", p.Name, s, i, got[i].Key(), want[i].Key())
			}
		}
		bag := oracleOf(s.Msgs)
		for _, tr := range p.Transitions {
			senders, _ := bag.matchingBySender(tr.Proc, tr.MsgType, tr.Peers)
			structural := tr.Spontaneous() || len(senders) >= tr.Quorum
			if tr.Quorum == core.AnyQuorum {
				structural = len(senders) > 0
			}
			if p.StructurallyEnabled(tr, s) != structural {
				t.Fatalf("%s at %s: StructurallyEnabled(%s) = %v, oracle %v", p.Name, s, tr, !structural, structural)
			}
			for _, peers := range [][]core.ProcessID{tr.Peers, nil} {
				if err := oracleMatchingSenders(s.Msgs, bag, tr.Proc, tr.MsgType, peers); err != nil {
					t.Fatalf("%s at %s: %s: %v", p.Name, s, tr, err)
				}
			}
		}
		for _, ev := range got {
			ns, err := p.Execute(s, ev)
			if err != nil {
				t.Fatalf("%s: execute %s: %v", p.Name, ev, err)
			}
			assertSuccessorMatchesOracle(t, p, s, ev, ns)
			if len(seen) < maxStates && !seen[ns.Key()] {
				seen[ns.Key()] = true
				queue = append(queue, ns)
			}
		}
	}
	t.Logf("%s: %d states compared", p.Name, len(seen))
}

func assertKeysMatchOracle(t *testing.T, p *core.Protocol, s *core.State) {
	t.Helper()
	want := freshStateKey(s)
	if got := s.Key(); got != want {
		t.Fatalf("%s: Key\n got %s\nwant %s", p.Name, got, want)
	}
	locals, bag := s.ComponentKeys()
	if got := strings.Join(locals, "|") + "#" + bag; got != want || len(locals) != len(s.Locals) {
		t.Fatalf("%s: ComponentKeys give %d locals and\n     %s\nwant %s", p.Name, len(locals), got, want)
	}
	for i, l := range s.Locals {
		if locals[i] != l.Key() || s.LocalKey(core.ProcessID(i)) != l.Key() {
			t.Fatalf("%s at %s: cached key of process %d is %q / %q, its local state says %q", p.Name, s, i, locals[i], s.LocalKey(core.ProcessID(i)), l.Key())
		}
	}
}

func assertSuccessorMatchesOracle(t *testing.T, p *core.Protocol, s *core.State, ev core.Event, ns *core.State) {
	t.Helper()
	want, err := p.ExecuteByCloning(s, ev)
	if err != nil {
		t.Fatalf("%s: oracle execute %s: %v", p.Name, ev, err)
	}
	if ns.Key() != want.Key() || ns.Msgs.Key() != oracleOf(want.Msgs).key() {
		t.Fatalf("%s at %s: %s leads to\n     %s\nwant %s", p.Name, s, ev, ns, want)
	}
	if ns.Msgs.Len() != want.Msgs.Len() || ns.Msgs.Distinct() != want.Msgs.Distinct() {
		t.Fatalf("%s at %s: %s leaves %d messages (%d distinct), oracle %d (%d)", p.Name, s, ev,
			ns.Msgs.Len(), ns.Msgs.Distinct(), want.Msgs.Len(), want.Msgs.Distinct())
	}
}

func TestEnabledAgainstRecursiveOracleOnBundledModels(t *testing.T) {
	build := func(p *core.Protocol, err error) *core.Protocol {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	models := []*core.Protocol{
		build(paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1})),
		build(paxos.New(paxos.Config{Proposers: 1, Acceptors: 3, Learners: 1, Model: paxos.ModelSingle})),
		build(multicast.New(multicast.Config{HonestReceivers: 3, HonestInitiators: 1, ByzantineReceivers: 1, ByzantineInitiators: 1})),
		build(multicast.New(multicast.Config{HonestReceivers: 2, HonestInitiators: 1, ByzantineInitiators: 1, Model: multicast.ModelSingle})),
		build(storage.New(storage.Config{Objects: 3, Readers: 2})),
		build(storage.New(storage.Config{Objects: 3, Readers: 1, Writes: 1, Model: storage.ModelSingle})),
	}
	maxStates := 3000
	if testing.Short() {
		maxStates = 300
	}
	for _, p := range models {
		assertEnabledMatchesOracle(t, p, maxStates)
	}
}

func TestEnabledAgainstRecursiveOracleOnRandomProtocols(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		p, err := mptest.Random(mptest.GenConfig{Seed: seed, Quorums: true, AnyQuorums: seed%2 == 0, Cycles: seed%3 == 0})
		if err != nil {
			t.Fatal(err)
		}
		assertEnabledMatchesOracle(t, p, 1500)
	}
}

// voteState counts the collections a collector has made.
type voteState struct{ done int }

func (s *voteState) Key() string            { return strconv.Itoa(s.done) }
func (s *voteState) Clone() core.LocalState { c := *s; return &c }

// wideQuorumProtocol has thirteen processes, so sender IDs on both sides of
// ten: 1, 2, 10 and 11 each hold two alternative votes for collector 12,
// which runs a quorum-3 transition over all of them, a guarded quorum-2
// transition over {2, 10, 11}, and an AnyQuorum transition over {2, 10}.
// Message keys order the senders 10 < 11 < 1 < 2; events must order them
// 1 < 2 < 10 < 11.
func wideQuorumProtocol(t *testing.T) *core.Protocol {
	t.Helper()
	const collector = 12
	var initial []core.Message
	for _, from := range []core.ProcessID{11, 2, 10, 1} {
		for v := 2; v > 0; v-- {
			initial = append(initial, core.Message{From: from, To: collector, Type: "VOTE", Payload: intPayload(v)})
		}
	}
	collect := func(c *core.Ctx) { c.Local.(*voteState).done++ }
	once := func(l core.LocalState) bool { return l.(*voteState).done < 2 }
	p := &core.Protocol{
		Name:            "wide-quorum",
		N:               collector + 1,
		InitialMessages: initial,
		Init: func() []core.LocalState {
			ls := make([]core.LocalState, collector+1)
			for i := range ls {
				ls[i] = &voteState{}
			}
			return ls
		},
		Transitions: []*core.Transition{
			{Name: "ALL3", Proc: collector, MsgType: "VOTE", Quorum: 3, LocalGuard: once, Apply: collect},
			{Name: "SOME2", Proc: collector, MsgType: "VOTE", Quorum: 2, Peers: []core.ProcessID{11, 2, 10},
				LocalGuard: once, Apply: collect,
				Guard: func(_ core.LocalState, msgs []core.Message) bool {
					return msgs[0].Payload.Key() == msgs[1].Payload.Key()
				}},
			{Name: "ANY", Proc: collector, MsgType: "VOTE", Quorum: core.AnyQuorum, Peers: []core.ProcessID{10, 2},
				LocalGuard: once, Apply: collect,
				Guard: func(_ core.LocalState, msgs []core.Message) bool { return len(msgs) <= 2 }},
		},
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEnabledAgainstRecursiveOracleOnWideQuorums(t *testing.T) {
	p := wideQuorumProtocol(t)
	assertEnabledMatchesOracle(t, p, 2000)

	// And pin the order itself, not only agreement with the oracle.
	s, err := p.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	first := p.Enabled(s)[0]
	if got, want := fmt.Sprint(first.Senders()), "[1 2 10]"; got != want {
		t.Fatalf("first event consumes from senders %s, want %s (numeric sender order)", got, want)
	}
	if got, want := fmt.Sprint(msgKeys(first.Msgs)), "[10>12:VOTE{1} 1>12:VOTE{1} 2>12:VOTE{1}]"; got != want {
		t.Fatalf("first event's messages are %s, want %s (key order)", got, want)
	}
}

// bounceProtocol exercises what the bundled models never do to a bag. The
// hub (process 11 of 12) consumes one PING at a time and sends a PING with
// the same payload to itself — when the consumed PING was its own, that is
// the consumed message re-sent in the same event — plus two identical PONGs
// to process 10, so every bag holds multiplicities above one: the initial
// PINGs are doubled, each bounce tops up "11>11:PING{1}", and the PONGs
// arrive in pairs. Senders 2, 10 and 11 sit on both sides of ten.
func bounceProtocol(t *testing.T) *core.Protocol {
	t.Helper()
	const hub, sink = 11, 10
	var initial []core.Message
	for _, from := range []core.ProcessID{hub, sink, 2, hub, sink} {
		initial = append(initial, core.Message{From: from, To: hub, Type: "PING", Payload: intPayload(1)})
	}
	p := &core.Protocol{
		Name:            "bounce",
		N:               hub + 1,
		InitialMessages: initial,
		Init: func() []core.LocalState {
			ls := make([]core.LocalState, hub+1)
			for i := range ls {
				ls[i] = &voteState{}
			}
			return ls
		},
		Transitions: []*core.Transition{
			{Name: "BOUNCE", Proc: hub, MsgType: "PING", Quorum: 1,
				LocalGuard: func(l core.LocalState) bool { return l.(*voteState).done < 4 },
				Apply: func(c *core.Ctx) {
					c.Local.(*voteState).done++
					c.Send(hub, "PING", c.Msgs[0].Payload)
					c.Send(sink, "PONG", intPayload(1))
					c.Send(sink, "PONG", intPayload(1))
				}},
			{Name: "PONG", Proc: sink, MsgType: "PONG", Quorum: 1, Peers: []core.ProcessID{hub},
				Apply: func(c *core.Ctx) { c.Local.(*voteState).done++ }},
		},
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSuccessorsAgainstCloningOracleOnMultiplicities(t *testing.T) {
	p := bounceProtocol(t)
	assertEnabledMatchesOracle(t, p, 2000)

	// And pin that the walk really meets the cases it is there for.
	s, err := p.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	var own core.Event
	for _, ev := range p.Enabled(s) {
		if ev.Msgs[0].From == ev.T.Proc {
			own = ev
		}
	}
	ns, err := p.Execute(s, own)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ns.Msgs.Key(), ";10>11:PING{1}*2;11>10:PONG{1}*2;11>11:PING{1}*2;2>11:PING{1}"; got != want {
		t.Fatalf("bouncing the hub's own PING leaves %s, want %s", got, want)
	}
	bogus := core.Event{T: own.T, Msgs: []core.Message{{From: 3, To: 11, Type: "PING", Payload: intPayload(1)}}}
	if _, err := p.Execute(ns, bogus); err == nil || !strings.Contains(err.Error(), "message 3>11:PING{1} not pending") {
		t.Fatalf("consuming a message that is not pending: %v", err)
	}
}

// rebuilt returns a state equal to s that shares nothing with it and
// inherited nothing: cloned local states, whose keys NewState takes afresh,
// and a bag filled from fresh messages.
func rebuilt(s *core.State) *core.State {
	locals := make([]core.LocalState, len(s.Locals))
	for i, l := range s.Locals {
		locals[i] = l.Clone()
	}
	bag := core.NewBag()
	s.Msgs.Each(func(m core.Message, n int) {
		for ; n > 0; n-- {
			bag.Add(fresh(m))
		}
	})
	return core.NewState(locals, bag)
}

// TestCanonsOnInheritedKeys checks the two Canon implementations that read
// the cached component keys, on the benchmark's two symmetry models:
// expanding the collapser's compressed key gives back the from-scratch
// state key, and the symmetry canon of a state reached through Execute
// equals that of its rebuilt twin.
func TestCanonsOnInheritedKeys(t *testing.T) {
	mc := multicast.Config{HonestReceivers: 3, HonestInitiators: 1, ByzantineReceivers: 1, ByzantineInitiators: 1}
	mcModel, err := multicast.New(mc)
	if err != nil {
		t.Fatal(err)
	}
	if mcModel, err = refine.Split(mcModel, refine.Combined); err != nil {
		t.Fatal(err)
	}
	px := paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1}
	pxModel, err := paxos.New(px)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		p     *core.Protocol
		roles [][]core.ProcessID
	}{{mcModel, mc.Roles()}, {pxModel, px.Roles()}} {
		sym, err := symmetry.New(c.p.N, c.roles)
		if err != nil {
			t.Fatal(err)
		}
		coll := explore.NewCollapser()
		init, err := c.p.InitialState()
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{init.Key(): true}
		queue := []*core.State{init}
		for len(queue) > 0 {
			s := queue[0]
			queue = queue[1:]
			full, err := coll.Expand(coll.Canon(s))
			if err != nil || full != freshStateKey(s) {
				t.Fatalf("%s: Expand(Canon(s)) = %q, %v\nwant %q", c.p.Name, full, err, freshStateKey(s))
			}
			if got, want := sym.Canon(s), sym.Canon(rebuilt(s)); got != want {
				t.Fatalf("%s at %s: symmetry canon\n got %s\nwant %s", c.p.Name, s, got, want)
			}
			for _, ev := range c.p.Enabled(s) {
				ns, err := c.p.Execute(s, ev)
				if err != nil {
					t.Fatal(err)
				}
				if len(seen) < 1000 && !seen[ns.Key()] {
					seen[ns.Key()] = true
					queue = append(queue, ns)
				}
			}
		}
	}
}

package mptest

import (
	"fmt"
	//lint:wallclock-ok seeded PRNG: generated protocols are deterministic functions of their seed, never of the clock
	"math/rand"
	"strconv"

	"mpbasset/internal/core"
	"mpbasset/internal/liveness"
)

// Local is the local state of every generated process: a bounded round
// counter.
type Local struct {
	Rounds int
}

// Key implements core.LocalState.
func (l *Local) Key() string { return strconv.Itoa(l.Rounds) }

// Clone implements core.LocalState.
func (l *Local) Clone() core.LocalState {
	c := *l
	return &c
}

// payload is a small integer payload.
type payload struct{ V int }

func (p payload) Key() string { return strconv.Itoa(p.V) }

// GenConfig controls the generator.
type GenConfig struct {
	// Seed drives all random choices; equal seeds give identical
	// protocols.
	Seed int64
	// MaxProcs bounds the process count (2..MaxProcs; default 4).
	MaxProcs int
	// Quorums allows quorum transitions (size 2) next to single-message
	// ones.
	Quorums bool
	// AnyQuorums additionally allows unrestricted subset (AnyQuorum)
	// transitions, guarded to small subsets to keep the powerset bounded.
	AnyQuorums bool
	// Cycles adds a ReadOnly token loop, making the state graph cyclic
	// (exercises the engines' ignoring provisos). Without it, generated
	// graphs are acyclic.
	Cycles bool
	// RingSize sets the length of the token loop Cycles installs: 0 or 2
	// is the original two-process reply bounce, larger values build a
	// one-directional token ring over that many dedicated processes
	// (appended after the n random ones), producing cycles the search
	// crosses over several BFS levels.
	RingSize int
	// CyclePriority sets the Priority of the cycle transitions (default 0,
	// tried last by the POR seed heuristic). A priority above the
	// generated transitions' (2) makes the expander prefer the invisible
	// loop as its stubborn-set seed — the adversarial configuration under
	// which a reduced search without an ignoring proviso can defer visible
	// events forever.
	CyclePriority int
	// Threshold, if positive, installs an invariant "process 0 completed
	// fewer than Threshold rounds"; protocols whose process 0 can reach
	// it yield counterexamples. Zero installs no invariant.
	Threshold int
	// MaxRounds bounds each process's per-run round limit (each process
	// draws a limit in 1..MaxRounds; default 2). Larger values deepen the
	// state graph — long first-child spines with unexplored siblings
	// pending at every level — the skewed shape that stresses deep search
	// stacks, where shallow graphs mostly exercise breadth.
	MaxRounds int
}

// Random generates a protocol from the configuration. The result is
// finalized and has ValidateSends set.
func Random(cfg GenConfig) (*core.Protocol, error) {
	maxProcs := cfg.MaxProcs
	if maxProcs < 2 {
		maxProcs = 4
	}
	maxRounds := cfg.MaxRounds
	if maxRounds < 2 {
		maxRounds = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := 2 + rng.Intn(maxProcs-1)
	types := []string{"M0", "M1", "M2"}

	var ts []*core.Transition
	for proc := 0; proc < n; proc++ {
		limit := 1 + rng.Intn(maxRounds)
		ts = append(ts, emitTransition(rng, core.ProcessID(proc), n, limit, types))
		nConsume := 1 + rng.Intn(2)
		for k := 0; k < nConsume; k++ {
			ts = append(ts, consumeTransition(rng, core.ProcessID(proc), n, limit, types, k, cfg.Quorums))
		}
		if cfg.AnyQuorums && rng.Intn(2) == 0 {
			ts = append(ts, anySubsetTransition(rng, core.ProcessID(proc), limit, types))
		}
	}
	var initial []core.Message
	procs := n
	if cfg.Cycles {
		if cfg.RingSize > 2 {
			// A dedicated one-directional token ring appended after the n
			// random processes: its cycles span RingSize BFS levels.
			ts = append(ts, ringTransitions(core.ProcessID(n), cfg.RingSize, cfg.CyclePriority)...)
			initial = append(initial, core.Message{
				From: core.ProcessID(n + cfg.RingSize - 1), To: core.ProcessID(n),
				Type: "CYC", Payload: payload{V: 0},
			})
			procs = n + cfg.RingSize
		} else {
			ts = append(ts, cycleTransitions(cfg.CyclePriority)...)
			initial = append(initial, core.Message{From: 1, To: 0, Type: "CYC", Payload: payload{V: 0}})
		}
	}

	p := &core.Protocol{
		Name:            fmt.Sprintf("random-%d", cfg.Seed),
		N:               procs,
		InitialMessages: initial,
		Init: func() []core.LocalState {
			locals := make([]core.LocalState, procs)
			for i := range locals {
				locals[i] = &Local{}
			}
			return locals
		},
		Transitions:   ts,
		ValidateSends: true,
	}
	if cfg.Threshold > 0 {
		thr := cfg.Threshold
		p.Invariant = func(s *core.State) error {
			if r := s.Local(0).(*Local).Rounds; r >= thr {
				return fmt.Errorf("process 0 reached %d rounds (threshold %d)", r, thr)
			}
			return nil
		}
		// The invariant reads process 0's rounds: its writers are the
		// visible transitions.
		for _, t := range p.Transitions {
			if t.Proc == 0 && !t.ReadOnly {
				t.Visible = true
			}
		}
	}
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	return p, nil
}

// emitTransition builds a spontaneous sender: each round it broadcasts a
// fixed set of messages whose payload encodes the round (bounded rounds
// keep the state space finite).
func emitTransition(rng *rand.Rand, proc core.ProcessID, n, limit int, types []string) *core.Transition {
	kind := types[rng.Intn(len(types))]
	var recipients []core.ProcessID
	for q := 0; q < n; q++ {
		if core.ProcessID(q) != proc && rng.Intn(2) == 0 {
			recipients = append(recipients, core.ProcessID(q))
		}
	}
	if len(recipients) == 0 {
		recipients = []core.ProcessID{core.ProcessID((int(proc) + 1) % n)}
	}
	return &core.Transition{
		Name:     "EMIT",
		Proc:     proc,
		Priority: 2,
		Sends:    []core.SendSpec{{Type: kind, To: recipients}},
		LocalGuard: func(ls core.LocalState) bool {
			return ls.(*Local).Rounds < limit
		},
		Apply: func(c *core.Ctx) {
			l := c.Local.(*Local)
			l.Rounds++
			for _, r := range recipients {
				c.Send(r, kind, payload{V: l.Rounds})
			}
		},
	}
}

// consumeTransition builds a receiving transition: single-message or
// quorum, sometimes a pure reply (ReadOnly is never combined with the round
// increment, keeping annotations honest — and pure replies would loop, so
// ReadOnly consumers simply absorb).
func consumeTransition(rng *rand.Rand, proc core.ProcessID, n, limit int, types []string, k int, quorums bool) *core.Transition {
	kind := types[rng.Intn(len(types))]
	quorum := 1
	if quorums && n > 2 && rng.Intn(3) == 0 {
		quorum = 2
	}
	var peers []core.ProcessID
	if rng.Intn(2) == 0 {
		for q := 0; q < n; q++ {
			if core.ProcessID(q) != proc {
				peers = append(peers, core.ProcessID(q))
			}
		}
		rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
		size := quorum + rng.Intn(len(peers)-quorum+1)
		peers = append([]core.ProcessID(nil), peers[:size]...)
		for i := range peers {
			for j := i + 1; j < len(peers); j++ {
				if peers[j] < peers[i] {
					peers[i], peers[j] = peers[j], peers[i]
				}
			}
		}
	}
	t := &core.Transition{
		Name:     fmt.Sprintf("RECV%d_%s", k, kind),
		Proc:     proc,
		MsgType:  kind,
		Quorum:   quorum,
		Peers:    peers,
		Priority: 1,
		LocalGuard: func(ls core.LocalState) bool {
			return ls.(*Local).Rounds < limit
		},
	}
	switch rng.Intn(3) {
	case 0:
		// Reply to the sender(s).
		t.IsReply = true
		reply := types[rng.Intn(len(types))]
		t.Sends = []core.SendSpec{{Type: reply, ToSenders: true}}
		t.Apply = func(c *core.Ctx) {
			l := c.Local.(*Local)
			l.Rounds++
			for _, q := range c.Senders() {
				c.Send(q, reply, payload{V: l.Rounds})
			}
		}
	case 1:
		// Absorb and advance.
		t.Apply = func(c *core.Ctx) {
			c.Local.(*Local).Rounds++
		}
	default:
		// Forward to a fixed recipient.
		to := core.ProcessID((int(proc) + 1) % n)
		fwd := types[rng.Intn(len(types))]
		t.Sends = []core.SendSpec{{Type: fwd, To: []core.ProcessID{to}}}
		t.Apply = func(c *core.Ctx) {
			l := c.Local.(*Local)
			l.Rounds++
			c.Send(to, fwd, payload{V: l.Rounds})
		}
	}
	return t
}

// anySubsetTransition builds an AnyQuorum consumer: it absorbs any subset
// of at most two matching messages in one step (the guard bounds the
// powerset).
func anySubsetTransition(rng *rand.Rand, proc core.ProcessID, limit int, types []string) *core.Transition {
	kind := types[rng.Intn(len(types))]
	return &core.Transition{
		Name:    "ANY_" + kind,
		Proc:    proc,
		MsgType: kind,
		Quorum:  core.AnyQuorum,
		LocalGuard: func(ls core.LocalState) bool {
			return ls.(*Local).Rounds < limit
		},
		Guard: func(_ core.LocalState, msgs []core.Message) bool {
			return len(msgs) <= 2
		},
		Apply: func(c *core.Ctx) {
			c.Local.(*Local).Rounds++
		},
	}
}

// cycleTransitions builds a two-process ReadOnly token loop: process 0 and
// 1 bounce a CYC message forever, so the state graph contains a cycle.
func cycleTransitions(priority int) []*core.Transition {
	mk := func(self, other core.ProcessID) *core.Transition {
		return &core.Transition{
			Name:     "CYC",
			Proc:     self,
			MsgType:  "CYC",
			Quorum:   1,
			Peers:    []core.ProcessID{other},
			IsReply:  true,
			ReadOnly: true,
			Priority: priority,
			Sends:    []core.SendSpec{{Type: "CYC", ToSenders: true}},
			Apply: func(c *core.Ctx) {
				c.Send(c.Msgs[0].From, "CYC", payload{V: 0})
			},
		}
	}
	return []*core.Transition{mk(0, 1), mk(1, 0)}
}

// ringTransitions builds a one-directional ReadOnly token ring over size
// processes starting at first: each member consumes CYC from its
// predecessor and forwards it to its successor, so the state graph
// contains a cycle of length size.
func ringTransitions(first core.ProcessID, size, priority int) []*core.Transition {
	ts := make([]*core.Transition, size)
	for i := 0; i < size; i++ {
		self := first + core.ProcessID(i)
		prev := first + core.ProcessID((i+size-1)%size)
		next := first + core.ProcessID((i+1)%size)
		ts[i] = &core.Transition{
			Name:     "CYC",
			Proc:     self,
			MsgType:  "CYC",
			Quorum:   1,
			Peers:    []core.ProcessID{prev},
			ReadOnly: true,
			Priority: priority,
			Sends:    []core.SendSpec{{Type: "CYC", To: []core.ProcessID{next}}},
			Apply: func(c *core.Ctx) {
				c.Send(next, "CYC", payload{V: 0})
			},
		}
	}
	return ts
}

// IgnoringTrap returns the minimal deterministic cyclic protocol on which
// a reduced breadth-first search WITHOUT an ignoring proviso is unsound:
// ring (>= 2) processes carry an invisible, high-priority CYC token loop,
// and process 0 owns a single visible transition that violates the
// invariant. The POR expander always seeds its stubborn set at the token
// holder (priority 5 beats the violating transition's 0), the loop is
// independent of process 0, so every ample set is the lone enabled CYC
// event — a reduced BFS just chases the token around the ring, rediscovers
// visited states forever, and reports Verified although the violation is
// one step away. The DFS stack proviso and the BFS queue proviso both
// promote the expansion that closes the ring, finding the violation via
// the identical trace (ring-1 CYC hops, then the violating event).
func IgnoringTrap(ring int) (*core.Protocol, error) {
	if ring < 2 {
		return nil, fmt.Errorf("mptest: IgnoringTrap needs a ring of at least 2, got %d", ring)
	}
	ts := []*core.Transition{{
		Name:     "VIOLATE",
		Proc:     0,
		Priority: 0,
		Visible:  true,
		LocalGuard: func(ls core.LocalState) bool {
			return ls.(*Local).Rounds < 1
		},
		Apply: func(c *core.Ctx) {
			c.Local.(*Local).Rounds++
		},
	}}
	ts = append(ts, ringTransitions(1, ring, 5)...)
	p := &core.Protocol{
		Name: fmt.Sprintf("ignoring-trap-%d", ring),
		N:    1 + ring,
		InitialMessages: []core.Message{{
			From: core.ProcessID(ring), To: 1, Type: "CYC", Payload: payload{V: 0},
		}},
		Init: func() []core.LocalState {
			locals := make([]core.LocalState, 1+ring)
			for i := range locals {
				locals[i] = &Local{}
			}
			return locals
		},
		Transitions:   ts,
		ValidateSends: true,
		Invariant: func(s *core.State) error {
			if r := s.Local(0).(*Local).Rounds; r >= 1 {
				return fmt.Errorf("process 0 reached %d rounds (threshold 1)", r)
			}
			return nil
		},
	}
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	return p, nil
}

// LivenessTrap returns the minimal deterministic cyclic protocol plus
// liveness property on which a reduced nested DFS WITHOUT the ignoring
// proviso is unsound — the liveness twin of IgnoringTrap, with the
// polarity flipped: for safety the proviso matters because reduction can
// postpone a bad STATE forever, for liveness because reduction can omit
// the accepting CYCLE entirely.
//
// The model is IgnoringTrap's: ring (>= 2) processes carry an invisible,
// high-priority CYC token loop, and process 0 owns a single visible
// PROGRESS transition that bumps its round counter from 0 to 1 (there is
// no invariant — the property under check is the liveness property). The
// property accepts states where process 0 has progressed, so a
// counterexample is a (reachable) cycle on which process 0 keeps its
// round forever — the full graph has one: fire PROGRESS, then loop the
// ring token at rounds 1, and NDFS reports it. A proviso-less reduced
// search never sees it: the expander always picks the lone CYC event
// (priority 5 beats PROGRESS's 0), so the reduced graph is just the bare
// rounds-0 token loop, which contains no accepting state at all — the
// reduction has ignored PROGRESS forever and wrongly reports the property
// live. The stack proviso promotes the expansion that closes the ring,
// restoring the accepting region.
func LivenessTrap(ring int) (*core.Protocol, *liveness.Property, error) {
	if ring < 2 {
		return nil, nil, fmt.Errorf("mptest: LivenessTrap needs a ring of at least 2, got %d", ring)
	}
	ts := []*core.Transition{{
		Name:     "PROGRESS",
		Proc:     0,
		Priority: 0,
		Visible:  true,
		LocalGuard: func(ls core.LocalState) bool {
			return ls.(*Local).Rounds < 1
		},
		Apply: func(c *core.Ctx) {
			c.Local.(*Local).Rounds++
		},
	}}
	ts = append(ts, ringTransitions(1, ring, 5)...)
	p := &core.Protocol{
		Name: fmt.Sprintf("liveness-trap-%d", ring),
		N:    1 + ring,
		InitialMessages: []core.Message{{
			From: core.ProcessID(ring), To: 1, Type: "CYC", Payload: payload{V: 0},
		}},
		Init: func() []core.LocalState {
			locals := make([]core.LocalState, 1+ring)
			for i := range locals {
				locals[i] = &Local{}
			}
			return locals
		},
		Transitions:   ts,
		ValidateSends: true,
	}
	if err := p.Finalize(); err != nil {
		return nil, nil, err
	}
	prop := &liveness.Property{
		Name:  "never-progresses",
		Reads: []core.ProcessID{0},
		Accept: func(s *core.State) bool {
			return s.Local(0).(*Local).Rounds >= 1
		},
	}
	return p, prop, nil
}

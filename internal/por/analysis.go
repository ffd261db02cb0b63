package por

import (
	"sort"

	"mpbasset/internal/core"
)

// Analysis holds the precomputed, state-independent relations over a
// protocol's transitions, mirroring MP-LPOR's pre-computation of
// unconditional (in)dependence outside the modeled program (§IV-B):
//
//   - enabledDeps[t]: the transitions that must accompany an *enabled*
//     member t of a stubborn set — t's own process (they can disable t or
//     conflict on t's messages and local state), t's feeders (they grow
//     t's set of executable events, so reordering them past t loses
//     quorum choices), and global-read couplings;
//   - feeders[t], grouped by the feeding process, used for
//     necessary-enabling sets (NET) of disabled members;
//   - the symmetric dependence relation used by dynamic POR's race
//     detection.
type Analysis struct {
	p *core.Protocol
	// conflicts[t]: same-process conflicting transitions plus global-read
	// couplings — the state-independent part of an enabled member's
	// dependence set. Two ReadOnly transitions of one process that cannot
	// contend for the same messages are *not* conflicting (the paper's
	// isWrite annotation at work).
	conflicts [][]int
	feeders   []map[core.ProcessID][]int
	// writers[t]: same-process transitions that may change the local
	// state — the only ones that can flip a local guard.
	writers [][]int
	symDep  [][]bool
}

// NewAnalysis precomputes the relations for p.
func NewAnalysis(p *core.Protocol) (*Analysis, error) {
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	ts := p.Transitions
	n := len(ts)
	a := &Analysis{
		p:         p,
		conflicts: make([][]int, n),
		feeders:   make([]map[core.ProcessID][]int, n),
		writers:   make([][]int, n),
		symDep:    make([][]bool, n),
	}
	for i := range ts {
		a.feeders[i] = make(map[core.ProcessID][]int)
		a.symDep[i] = make([]bool, n)
		a.symDep[i][i] = true
	}
	for i, ti := range ts {
		for j, tj := range ts {
			if i == j {
				continue
			}
			same := ti.Proc == tj.Proc
			conflict := same && sameProcConflict(ti, tj)
			feedsJI := canFeed(tj, ti) // tj may supply messages ti consumes
			// Global-read couplings: a reader is affected only by
			// transitions that can change the state it reads.
			reads := (readsProcess(ti, tj.Proc) && !tj.ReadOnly) ||
				(readsProcess(tj, ti.Proc) && !ti.ReadOnly)
			if same && !tj.ReadOnly {
				a.writers[i] = append(a.writers[i], j)
			}
			if feedsJI {
				a.feeders[i][tj.Proc] = append(a.feeders[i][tj.Proc], j)
			}
			if conflict || reads {
				a.conflicts[i] = append(a.conflicts[i], j)
			}
			if conflict || feedsJI || reads {
				a.symDep[i][j] = true
				a.symDep[j][i] = true
			}
		}
	}
	return a, nil
}

// sameProcConflict decides whether two distinct transitions of one process
// conflict: they do unless both are ReadOnly (neither changes the state the
// other reads) and they cannot contend for the same pending messages.
func sameProcConflict(t, u *core.Transition) bool {
	if !t.ReadOnly || !u.ReadOnly {
		return true
	}
	return mayShareMessages(t, u)
}

// mayShareMessages reports whether two transitions of the same process
// could consume the same message: same consumed type and overlapping
// allowed senders.
func mayShareMessages(t, u *core.Transition) bool {
	if t.Spontaneous() || u.Spontaneous() {
		return false
	}
	if t.MsgType != u.MsgType {
		return false
	}
	if t.Peers == nil || u.Peers == nil {
		return true
	}
	for _, q := range t.Peers {
		for _, r := range u.Peers {
			if q == r {
				return true
			}
		}
	}
	return false
}

// Protocol returns the analyzed protocol.
func (a *Analysis) Protocol() *core.Protocol { return a.p }

// Dependent reports (symmetric, reflexive) static dependence between two
// transitions by index: same process, feeding in either direction, or
// global-read coupling. Dynamic POR uses this for race detection.
func (a *Analysis) Dependent(i, j int) bool { return a.symDep[i][j] }

// DependenceCount returns the number of ordered dependent pairs (i != j).
// Transition refinement should shrink it; the ablation bench reports it.
func (a *Analysis) DependenceCount() int {
	n := 0
	for i := range a.symDep {
		for j := range a.symDep[i] {
			if i != j && a.symDep[i][j] {
				n++
			}
		}
	}
	return n
}

// readsProcess reports whether t reads q's local state via GlobalReads.
func readsProcess(t *core.Transition, q core.ProcessID) bool {
	for _, r := range t.GlobalReads {
		if r == q {
			return true
		}
	}
	return false
}

// canFeed reports whether u may send a message that t may consume: u has a
// send specification matching t's message type, whose possible recipients
// include t's process, and u's process is an allowed sender (peer) of t.
// Refined transitions declare narrower peers and reply recipients, making
// this relation sparser — the mechanism behind §III-C/D.
func canFeed(u, t *core.Transition) bool {
	if t.Spontaneous() {
		return false
	}
	if !t.AllowsSender(u.Proc) {
		return false
	}
	for _, spec := range u.Sends {
		if spec.Type != t.MsgType {
			continue
		}
		if specCanReach(u, spec, t.Proc) {
			return true
		}
	}
	return false
}

// specCanReach reports whether u's send specification may address process q.
func specCanReach(u *core.Transition, spec core.SendSpec, q core.ProcessID) bool {
	if spec.To != nil {
		for _, r := range spec.To {
			if r == q {
				return true
			}
		}
		return false
	}
	if spec.ToSenders {
		// Recipients are senders of u's consumed messages, i.e. u's peers.
		if u.Peers == nil {
			return true
		}
		for _, r := range u.Peers {
			if r == q {
				return true
			}
		}
		return false
	}
	return true
}

// closureConfig selects sound weakenings of the closure for ablation
// studies (the paper's appendix distinguishes plain LPOR from LPOR-NET the
// same way): replacing a necessary-enabling set or the uniqueness-refined
// feeder set by a superset is always sound, merely less reductive.
// dropGrowthFeeders is the UNSOUND test-only variant documented at
// Expander.dropGrowthFeeders.
type closureConfig struct {
	disableNET        bool
	disableUniqueness bool
	dropGrowthFeeders bool
}

// stubborn computes a strong stubborn set at state s, seeded with seed:
// an enabled member pulls in anything that could disable it, conflict with
// it, or grow its set of executable events; a disabled member pulls in a
// necessary enabling set. Returns transition indices.
func (a *Analysis) stubborn(seed int, s *core.State, enabled map[int]bool, cfg closureConfig) map[int]bool {
	inSet := map[int]bool{seed: true}
	work := []int{seed}
	add := func(j int) {
		if !inSet[j] {
			inSet[j] = true
			work = append(work, j)
		}
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		if enabled[i] {
			for _, j := range a.conflicts[i] {
				add(j)
			}
			if !cfg.dropGrowthFeeders {
				for _, j := range a.growthFeeders(i, s, cfg.disableUniqueness) {
					add(j)
				}
			}
			continue
		}
		for _, j := range a.net(i, s, cfg.disableNET) {
			add(j)
		}
	}
	return inSet
}

// growthFeeders returns the feeders that could still grow the event set of
// the *enabled* transition i at state s. New events for i need new
// consumable messages; when i is UniquePerSender, a sender that already
// contributes a candidate cannot supply another, so only feeders executed
// by non-contributing peers qualify — for a fully split transition whose
// quorum is complete, that is the empty set, which is precisely why
// refinement sharpens the reduction (§III-C/D). Without the uniqueness
// property every feeder must be assumed capable of adding alternatives.
func (a *Analysis) growthFeeders(i int, s *core.State, disableUniqueness bool) []int {
	t := a.p.Transitions[i]
	if t.Spontaneous() {
		return nil
	}
	if !t.UniquePerSender || disableUniqueness {
		return a.allFeeders(i)
	}
	var out []int
	//lint:nondet-ok out is sorted before return
	for q, fs := range a.feeders[i] {
		contributing := t.AllowsSender(q) && s.Msgs.HasMatching(t.Proc, t.MsgType, []core.ProcessID{q})
		if !contributing {
			out = append(out, fs...)
		}
	}
	sort.Ints(out)
	return out
}

// net returns a necessary enabling set for the disabled transition i at
// state s: every path on which i becomes enabled must execute one of the
// returned transitions first. The tightest applicable condition is chosen
// (the LPOR-NET optimization):
//
//  1. the local-state guard is false — only the process's own
//     state-writing transitions can change that;
//  2. the message quorum is structurally incomplete — only feeders, and
//     with restricted peers only feeders executed by the *missing* senders
//     (this is where quorum-split sharpens the NET); if no feeder can ever
//     supply the deficit the transition is permanently disabled and the
//     empty set is a valid NET;
//  3. otherwise the content guard rejects every candidate set — a local
//     change or different message contents are needed.
func (a *Analysis) net(i int, s *core.State, disableNET bool) []int {
	t := a.p.Transitions[i]
	if !t.LocalGuardOK(s.Locals[t.Proc]) {
		return a.writers[i]
	}
	if t.Spontaneous() {
		// LocalGuard (if any) holds yet the transition is disabled: the
		// full guard must be local-state based too.
		return a.writers[i]
	}
	if !a.p.StructurallyEnabled(t, s) {
		missing := a.p.MissingSenders(t, s)
		if missing == nil || disableNET {
			return a.allFeeders(i)
		}
		var out []int
		for _, q := range missing {
			out = append(out, a.feeders[i][q]...)
		}
		sort.Ints(out)
		return out
	}
	out := append([]int(nil), a.writers[i]...)
	out = append(out, a.allFeeders(i)...)
	sort.Ints(out)
	return out
}

func (a *Analysis) allFeeders(i int) []int {
	var out []int
	//lint:nondet-ok out is sorted before return
	for _, f := range a.feeders[i] {
		out = append(out, f...)
	}
	sort.Ints(out)
	return out
}

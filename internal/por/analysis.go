package por

import (
	"math/bits"

	"mpbasset/internal/core"
)

// bitset is a set of transition indices, 64 to a word.
type bitset []uint64

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }

// Analysis holds the precomputed, state-independent relations over a
// protocol's transitions, mirroring MP-LPOR's pre-computation of
// unconditional (in)dependence outside the modeled program (§IV-B). Every
// relation is a table of bitset rows of w words, row i at [i*w, (i+1)*w),
// all cut from one slab, so the per-state closure of Expander is word ORs
// over rows that were laid out before the search started.
type Analysis struct {
	p *core.Protocol
	w int // words per row
	// conflicts row t: same-process conflicting transitions plus
	// global-read couplings — the state-independent part of an enabled
	// member's dependence set. Two ReadOnly transitions of one process that
	// cannot contend for the same messages are *not* conflicting (the
	// paper's isWrite annotation at work).
	conflicts []uint64
	// writers row t: same-process transitions that may change the local
	// state — the only ones that can flip a local guard.
	writers []uint64
	// feeders row t: the transitions that may send a message t consumes —
	// they grow an enabled t's set of executable events, and a disabled t
	// whose quorum is incomplete needs one of them first. feedersBy splits
	// the row by the feeding process, row (t, q) at index t*p.N+q: the
	// necessary-enabling sets (NET) and the uniqueness refinement pick
	// feeders by the senders a state is missing.
	feeders, feedersBy []uint64
	// enabling row t: writers ∪ feeders, the NET of a member whose quorum
	// is complete but whose guard rejects every candidate set.
	enabling []uint64
	// symDep row t: the symmetric, reflexive dependence relation used by
	// dynamic POR's race detection.
	symDep []uint64
	// visible: the one row of property-visible transitions (C2).
	visible bitset
}

// row returns row i of a relation table.
func (a *Analysis) row(rel []uint64, i int) bitset { return rel[i*a.w : (i+1)*a.w] }

// NewAnalysis precomputes the relations for p.
func NewAnalysis(p *core.Protocol) (*Analysis, error) {
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	ts := p.Transitions
	n := len(ts)
	w := (n + 63) / 64
	slab := make([]uint64, (5*n+n*p.N+1)*w)
	cut := func(rows int) []uint64 {
		rel := slab[:rows*w]
		slab = slab[rows*w:]
		return rel
	}
	a := &Analysis{p: p, w: w,
		conflicts: cut(n), writers: cut(n), feeders: cut(n), feedersBy: cut(n * p.N),
		enabling: cut(n), symDep: cut(n), visible: cut(1)}
	for i, ti := range ts {
		if ti.Visible {
			a.visible.set(i)
		}
		a.row(a.symDep, i).set(i)
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
				a.row(a.writers, i).set(j)
				a.row(a.enabling, i).set(j)
			}
			if feedsJI {
				a.row(a.feeders, i).set(j)
				a.row(a.feedersBy, i*p.N+int(tj.Proc)).set(j)
				a.row(a.enabling, i).set(j)
			}
			if conflict || reads {
				a.row(a.conflicts, i).set(j)
			}
			if conflict || feedsJI || reads {
				a.row(a.symDep, i).set(j)
				a.row(a.symDep, j).set(i)
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
func (a *Analysis) Dependent(i, j int) bool { return a.row(a.symDep, i).has(j) }

// DependenceCount returns the number of ordered dependent pairs (i != j).
// Transition refinement should shrink it; the ablation bench reports it.
func (a *Analysis) DependenceCount() int {
	n := -len(a.p.Transitions) // the diagonal
	for _, word := range a.symDep {
		n += bits.OnesCount64(word)
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

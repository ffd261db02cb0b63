package por

import (
	"slices"
	"sort"

	"mpbasset/internal/core"
)

// oracleExpander is Expander as it was before the relations became bitset
// rows, kept as the reference of the differential tests: the relations are
// index lists and per-process maps, every stubborn set is a fresh
// map[int]bool closed over a work list, one closure per seed tried, and
// the bag is scanned once per peer. It shares only the pairwise predicates
// (sameProcConflict, canFeed, readsProcess) and the seed order with the
// real one.
type oracleExpander struct {
	e         *Expander // the seed order and the configuration
	p         *core.Protocol
	conflicts [][]int
	writers   [][]int
	feeders   []map[core.ProcessID][]int
}

// newOracleExpander builds the reference for e's protocol; it follows e's
// configuration.
func newOracleExpander(e *Expander) *oracleExpander {
	p := e.a.p
	ts := p.Transitions
	o := &oracleExpander{
		e:         e,
		p:         p,
		conflicts: make([][]int, len(ts)),
		writers:   make([][]int, len(ts)),
		feeders:   make([]map[core.ProcessID][]int, len(ts)),
	}
	for i, ti := range ts {
		o.feeders[i] = make(map[core.ProcessID][]int)
		for j, tj := range ts {
			if i == j {
				continue
			}
			same := ti.Proc == tj.Proc
			reads := (readsProcess(ti, tj.Proc) && !tj.ReadOnly) ||
				(readsProcess(tj, ti.Proc) && !ti.ReadOnly)
			if same && !tj.ReadOnly {
				o.writers[i] = append(o.writers[i], j)
			}
			if canFeed(tj, ti) {
				o.feeders[i][tj.Proc] = append(o.feeders[i][tj.Proc], j)
			}
			if (same && sameProcConflict(ti, tj)) || reads {
				o.conflicts[i] = append(o.conflicts[i], j)
			}
		}
	}
	return o
}

func (o *oracleExpander) expand(s *core.State, enabled []core.Event) []core.Event {
	if len(enabled) <= 1 {
		return enabled
	}
	enabledSet := make(map[int]bool)
	for _, ev := range enabled {
		enabledSet[ev.T.Index()] = true
	}
	distinct := len(enabledSet)
	if distinct <= 1 {
		return enabled
	}
	var best map[int]bool
	bestSize := distinct
	for _, seed := range o.e.seedOrder {
		if !enabledSet[seed] {
			continue
		}
		stub := o.stubborn(seed, s, enabledSet)
		size, visible := 0, false
		for idx := range stub {
			if enabledSet[idx] {
				size++
				visible = visible || o.p.Transitions[idx].Visible
			}
		}
		if size >= bestSize || visible {
			continue
		}
		best, bestSize = stub, size
		if !o.e.BestSeed {
			break
		}
	}
	if best == nil {
		return enabled
	}
	out := make([]core.Event, 0, len(enabled))
	for _, ev := range enabled {
		if best[ev.T.Index()] {
			out = append(out, ev)
		}
	}
	return out
}

func (o *oracleExpander) stubborn(seed int, s *core.State, enabled map[int]bool) map[int]bool {
	inSet := map[int]bool{seed: true}
	work := []int{seed}
	add := func(js []int) {
		for _, j := range js {
			if !inSet[j] {
				inSet[j] = true
				work = append(work, j)
			}
		}
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		if !enabled[i] {
			add(o.net(i, s))
			continue
		}
		add(o.conflicts[i])
		if !o.e.dropGrowthFeeders {
			add(o.growthFeeders(i, s))
		}
	}
	return inSet
}

func (o *oracleExpander) growthFeeders(i int, s *core.State) []int {
	t := o.p.Transitions[i]
	if t.Spontaneous() {
		return nil
	}
	if !t.UniquePerSender || o.e.DisableUniqueness {
		return o.allFeeders(i)
	}
	var out []int
	for q, fs := range o.feeders[i] {
		contributing := t.AllowsSender(q) && s.Msgs.HasMatchingSenders(t.Proc, t.MsgType, []core.ProcessID{q}, 1)
		if !contributing {
			out = append(out, fs...)
		}
	}
	sort.Ints(out)
	return out
}

func (o *oracleExpander) net(i int, s *core.State) []int {
	t := o.p.Transitions[i]
	if !t.LocalGuardOK(s.Locals[t.Proc]) || t.Spontaneous() {
		return o.writers[i]
	}
	if !o.p.StructurallyEnabled(t, s) {
		missing := oracleMissingSenders(t, s)
		if missing == nil || o.e.DisableNET {
			return o.allFeeders(i)
		}
		var out []int
		for _, q := range missing {
			out = append(out, o.feeders[i][q]...)
		}
		sort.Ints(out)
		return out
	}
	out := append([]int(nil), o.writers[i]...)
	out = append(out, o.allFeeders(i)...)
	sort.Ints(out)
	return out
}

// oracleMissingSenders is the deleted core.MissingSenders: nil both for
// unrestricted peers and when no peer is missing.
func oracleMissingSenders(t *core.Transition, s *core.State) []core.ProcessID {
	var missing []core.ProcessID
	for _, q := range t.Peers {
		if !s.Msgs.HasMatchingSenders(t.Proc, t.MsgType, []core.ProcessID{q}, 1) {
			missing = append(missing, q)
		}
	}
	slices.Sort(missing)
	return missing
}

func (o *oracleExpander) allFeeders(i int) []int {
	var out []int
	for _, f := range o.feeders[i] {
		out = append(out, f...)
	}
	sort.Ints(out)
	return out
}

package por

import (
	"testing"

	"mpbasset/internal/core"
	"mpbasset/internal/protocols/paxos"
	"mpbasset/internal/refine"
)

// BenchmarkAnalysisPrecomputation measures MP-LPOR's one-time cost of
// precomputing the static relations, for the unsplit and combined-split
// Paxos models (split models have more transitions).
func BenchmarkAnalysisPrecomputation(b *testing.B) {
	base, err := paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []refine.Strategy{refine.None, refine.Combined} {
		strat := strat
		b.Run(strat.String(), func(b *testing.B) {
			p, err := refine.Split(base, strat)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewAnalysis(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExpand measures the per-state reduction — enabled bitset, row
// memo, closure per seed tried, subset — over a fixed corpus: the first
// 2000 states a DFS of the Paxos(2,3,2) quorum model expands.
func BenchmarkExpand(b *testing.B) {
	exp, states, enabled := expandCorpus(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(states)
		benchSink = exp.Expand(states[k], enabled[k], nil)
	}
}

var benchSink []core.Event

package dpor

import "mpbasset/internal/core"

// SentKeys exposes both computations of an event's sent-message keys to the
// external tests: the one the sequential walk runs inline, and the one a
// speculative expansion record of the same state memoizes per enabled event.
func SentKeys(p *core.Protocol, s *core.State) (inline, speculative [][]string, err error) {
	rec, _ := specBuild(p, s)
	for i, ev := range rec.enabled {
		ns, err := p.Execute(s, ev)
		if err != nil {
			return nil, nil, err
		}
		inline = append(inline, sentKeys(s, ns, ev))
		speculative = append(speculative, rec.succs[i].sent)
	}
	return inline, speculative, nil
}

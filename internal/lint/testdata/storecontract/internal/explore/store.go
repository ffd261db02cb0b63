package explore

// Store mirrors the visited-store shape: Seen records, Has only probes.
type Store struct{ m map[string]struct{} }

func (s *Store) Seen(key string) bool {
	if _, ok := s.m[key]; ok {
		return true
	}
	if s.m == nil {
		s.m = make(map[string]struct{})
	}
	s.m[key] = struct{}{}
	return false
}

func (s *Store) Has(key string) bool {
	_, ok := s.m[key]
	return ok
}

// wrapper degrades Has — exactly why callers must not trust it.
type wrapper struct{ inner *Store }

// allowed: a Has implementation delegating to an inner Has.
func (w *wrapper) Has(key string) bool {
	if w.inner == nil {
		return false
	}
	return w.inner.Has(key)
}

// flagged: branching on the hint to skip the authoritative insert.
func skipInsert(s *Store, key string) {
	if s.Has(key) { // want `hint-only membership probe`
		return
	}
	s.Seen(key)
}

// allowed: annotated hint site — staleness costs duplicated work only.
func annotated(s *Store, key string) bool {
	//lint:has-ok work-skipping hint: a stale answer re-explores a subtree, it never shapes a verdict
	return s.Has(key)
}

// not flagged: a different Has signature is not the store probe.
type bitset struct{}

func (bitset) Has(i int) bool { return i == 0 }

func probeBits(b bitset) bool { return b.Has(3) }

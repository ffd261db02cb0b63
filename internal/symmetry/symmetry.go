package symmetry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mpbasset/internal/core"
)

// Remapper is implemented by local states and payloads that embed process
// IDs. Remap must return a value of the same concrete type with every
// embedded ID replaced by f(ID), leaving the receiver unmodified.
type Remapper interface {
	Remap(f func(core.ProcessID) core.ProcessID) any
}

// Canonicalizer maps states to canonical keys modulo role-preserving
// process permutations.
type Canonicalizer struct {
	n     int
	roles [][]core.ProcessID
	perms [][]core.ProcessID // all role-preserving permutations (as maps old->new indexed by old)
}

// New builds a canonicalizer for a system of n processes with the given
// roles. Every process must belong to exactly one role (singleton roles may
// be omitted — missing processes are treated as fixed). Roles with k
// members contribute k! permutations; keep roles small (≤ 5 or so).
func New(n int, roles [][]core.ProcessID) (*Canonicalizer, error) {
	seen := make(map[core.ProcessID]bool)
	for _, role := range roles {
		for _, p := range role {
			if p < 0 || int(p) >= n {
				return nil, fmt.Errorf("symmetry: process %d out of range [0,%d)", p, n)
			}
			if seen[p] {
				return nil, fmt.Errorf("symmetry: process %d appears in two roles", p)
			}
			seen[p] = true
		}
	}
	c := &Canonicalizer{n: n, roles: roles}
	c.perms = c.buildPerms()
	return c, nil
}

// NumPermutations returns the size of the symmetry group considered.
func (c *Canonicalizer) NumPermutations() int { return len(c.perms) }

// buildPerms enumerates the product of per-role permutations.
func (c *Canonicalizer) buildPerms() [][]core.ProcessID {
	identity := make([]core.ProcessID, c.n)
	for i := range identity {
		identity[i] = core.ProcessID(i)
	}
	perms := [][]core.ProcessID{identity}
	for _, role := range c.roles {
		if len(role) < 2 {
			continue
		}
		rolePerms := permutations(role)
		var next [][]core.ProcessID
		for _, base := range perms {
			for _, rp := range rolePerms {
				p := append([]core.ProcessID(nil), base...)
				for i, from := range role {
					p[from] = rp[i]
				}
				next = append(next, p)
			}
		}
		perms = next
	}
	return perms
}

// permutations enumerates all orderings of ids.
func permutations(ids []core.ProcessID) [][]core.ProcessID {
	if len(ids) == 1 {
		return [][]core.ProcessID{{ids[0]}}
	}
	var out [][]core.ProcessID
	for i := range ids {
		rest := make([]core.ProcessID, 0, len(ids)-1)
		rest = append(rest, ids[:i]...)
		rest = append(rest, ids[i+1:]...)
		for _, sub := range permutations(rest) {
			out = append(out, append([]core.ProcessID{ids[i]}, sub...))
		}
	}
	return out
}

// Canon returns the canonical key of s: the minimum encoding over the
// symmetry group. Use it as explore.Options.Canon.
func (c *Canonicalizer) Canon(s *core.State) string {
	best := ""
	for _, perm := range c.perms {
		k := c.encode(s, perm)
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

// encode renders s under the permutation perm (old ID -> new ID).
func (c *Canonicalizer) encode(s *core.State, perm []core.ProcessID) string {
	f := func(p core.ProcessID) core.ProcessID { return perm[p] }
	// Locals: position i of the encoding holds the local state of the
	// process mapped TO i (i.e. the inverse image), with embedded IDs
	// remapped.
	inv := make([]core.ProcessID, c.n)
	for from, to := range perm {
		inv[to] = core.ProcessID(from)
	}
	var sb strings.Builder
	for i := 0; i < c.n; i++ {
		if i > 0 {
			sb.WriteByte('|')
		}
		if r, ok := s.Locals[inv[i]].(Remapper); ok {
			sb.WriteString(r.Remap(f).(core.LocalState).Key())
		} else {
			sb.WriteString(s.LocalKey(inv[i]))
		}
	}
	sb.WriteByte('#')
	keys := make([]string, 0, s.Msgs.Distinct())
	counts := make(map[string]int)
	s.Msgs.Each(func(m core.Message, n int) {
		nm := core.Message{From: f(m.From), To: f(m.To), Type: m.Type, Payload: m.Payload}
		if r, ok := m.Payload.(Remapper); ok {
			nm.Payload = r.Remap(f).(core.Payload)
		}
		k := nm.Key()
		if counts[k] == 0 {
			keys = append(keys, k)
		}
		counts[k] += n
	})
	sort.Strings(keys)
	for _, k := range keys {
		sb.WriteByte(';')
		sb.WriteString(k)
		if counts[k] > 1 {
			sb.WriteByte('*')
			sb.WriteString(strconv.Itoa(counts[k]))
		}
	}
	return sb.String()
}

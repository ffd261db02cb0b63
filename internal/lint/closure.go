package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// The detclosure pass: given the call-graph facts of a package and its
// transitive dependencies, compute which functions are reachable from
// the engine entry points and turn the reachable packages' pending
// diagnostics into real ones. Both drivers run it — the standalone
// driver over the facts of every loaded package at once, the vet-tool
// driver per unit over the facts carried up through vetx files.

// EntryPoints is the root-set specification of the deterministic
// closure. Each element is "pkgSuffix.Name"; package suffixes match like
// DeterministicPkg (exact or "/"-anchored suffix), so the spec works for
// the real tree (mpbasset/internal/explore) and the fixtures
// (internal/explore) alike.
type EntryPoints struct {
	// Funcs are named engine entry functions (explore.BFS, dpor.Explore).
	Funcs []string
	// Ifaces are engine-facing interfaces: every method of every type
	// implementing one is both a dispatch target and an entry point, so
	// Store/Expander implementations in any package are checked at their
	// defining unit.
	Ifaces []string
	// Structs are callback structs: any function assigned into one of
	// their func-typed fields (core.Protocol{Init: ...},
	// explore.Options.Canon = ...) runs under an engine and is an entry
	// point of the assigning package.
	Structs []string
}

// DefaultEntryPoints returns the engine root set: the four stateful
// exploration entry functions, the liveness oracle and the DPOR drivers;
// the store, expander and local-state interfaces; and the
// protocol/property/options callback structs through which user code is
// invoked by the engines.
func DefaultEntryPoints() *EntryPoints {
	return &EntryPoints{
		Funcs: []string{
			"internal/explore.BFS",
			"internal/explore.DFS",
			"internal/explore.ParallelBFS",
			"internal/explore.NDFS",
			"internal/liveness.Oracle",
			"internal/dpor.Explore",
			"internal/dpor.ExploreWith",
		},
		Ifaces: []string{
			"internal/explore.Store",
			"internal/explore.Expander",
			"internal/core.LocalState",
		},
		Structs: []string{
			"internal/core.Protocol",
			"internal/core.Transition",
			"internal/liveness.Property",
			"internal/explore.Options",
		},
	}
}

// ParseEntryPoints extends the default spec with a comma-separated
// -entrypoints override. Each item is one of:
//
//	func:pkgSuffix.Name     a named entry function
//	iface:pkgSuffix.Name    an interface whose implementations are entries
//	struct:pkgSuffix.Name   a callback struct whose field functions are entries
//	pkgSuffix.Name          shorthand for func:
//
// so future subsystems opt into the closure without code changes.
func ParseEntryPoints(s string) (*EntryPoints, error) {
	spec := DefaultEntryPoints()
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		kind, rest, ok := strings.Cut(item, ":")
		if !ok {
			kind, rest = "func", item
		}
		if !strings.Contains(rest, ".") {
			return nil, fmt.Errorf("entrypoint %q: want pkgSuffix.Name", item)
		}
		switch kind {
		case "func":
			spec.Funcs = append(spec.Funcs, rest)
		case "iface":
			spec.Ifaces = append(spec.Ifaces, rest)
		case "struct":
			spec.Structs = append(spec.Structs, rest)
		default:
			return nil, fmt.Errorf("entrypoint %q: unknown kind %q (want func, iface or struct)", item, kind)
		}
	}
	return spec, nil
}

// cgView is the merged, resolvable view of a set of package facts.
type cgView struct {
	funcs map[string][]string // funcID -> callees (may include iface:/field: nodes)
	// ifaceTargets maps iface:pkg.I.M nodes to the concrete methods the
	// recorded implementation pairs resolve them to.
	ifaceTargets map[string][]string
	fields       map[string][]string
}

// newCGView merges facts and pre-resolves dynamic nodes.
func newCGView(facts []*PackageFacts) *cgView {
	v := &cgView{
		funcs:        make(map[string][]string),
		ifaceTargets: make(map[string][]string),
		fields:       make(map[string][]string),
	}
	impls := make(map[string][]string) // ifaceID -> typeIDs
	methods := make(map[string]map[string]string)
	for _, pf := range facts {
		for id, callees := range pf.Funcs {
			v.funcs[id] = append(v.funcs[id], callees...)
		}
		for _, pair := range pf.Impls {
			impls[pair[0]] = append(impls[pair[0]], pair[1])
		}
		for tid, ms := range pf.Methods {
			if methods[tid] == nil {
				methods[tid] = make(map[string]string)
			}
			for name, fid := range ms {
				methods[tid][name] = fid
			}
		}
		for node, fns := range pf.Fields {
			v.fields[node] = append(v.fields[node], fns...)
		}
	}
	// Resolve every iface:pkg.I.M node that any edge references.
	for _, callees := range v.funcs {
		for _, c := range callees {
			ifaceID, ok := strings.CutPrefix(c, "iface:")
			if !ok {
				continue
			}
			if _, done := v.ifaceTargets[c]; done {
				continue
			}
			i := strings.LastIndex(ifaceID, ".")
			if i < 0 {
				continue
			}
			iface, method := ifaceID[:i], ifaceID[i+1:]
			var targets []string
			for _, tid := range impls[iface] {
				if fid, ok := methods[tid][method]; ok {
					targets = append(targets, fid)
				}
			}
			sort.Strings(targets)
			v.ifaceTargets[c] = targets
		}
	}
	return v
}

// reach computes the function set reachable from roots over the merged
// graph, expanding iface: and field: nodes through their recorded
// targets.
func (v *cgView) reach(roots []string) map[string]bool {
	seen := make(map[string]bool)
	queue := append([]string(nil), roots...)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if seen[id] {
			continue
		}
		seen[id] = true
		var callees []string
		switch {
		case strings.HasPrefix(id, "iface:"):
			callees = v.ifaceTargets[id]
		case strings.HasPrefix(id, "field:"):
			callees = v.fields[id]
		default:
			callees = v.funcs[id]
		}
		queue = append(queue, callees...)
	}
	return seen
}

// Reach exposes reachability over a fact set for the driver tests: the
// function IDs reachable from roots, sorted.
func Reach(facts []*PackageFacts, roots []string) []string {
	seen := newCGView(facts).reach(roots)
	out := make([]string, 0, len(seen))
	for id := range seen {
		if !strings.HasPrefix(id, "iface:") && !strings.HasPrefix(id, "field:") {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// EmitClosure turns pending diagnostics into real ones at self's unit.
//
// The facts channel flows bottom-up (dependencies are analyzed first),
// but reachability flows top-down from entry points defined in high
// packages. The reconciliation: every unit records its own findings as
// pending facts, and a unit that DEFINES entry points emits every
// pending finding — its own or a dependency's — that its entries reach
// over the full fact set (self + deps). To keep one finding from being
// emitted at several units, a unit subtracts what its dependencies'
// entry points reach over the dependencies' facts ALONE: that is
// exactly the view the deepest dependency unit had, i.e. what was
// already emitted below. (Reachability that only materializes through
// self's own facts — an implementation pair or callback assignment
// recorded here — was invisible below and is therefore not subtracted.)
// The standalone driver additionally deduplicates globally; under the
// vet driver a finding reachable from two unrelated roots in sibling
// units can in principle print twice, which is benign on the
// zero-diagnostic tree CI enforces.
func EmitClosure(self *PackageFacts, deps []*PackageFacts) []Diagnostic {
	if len(self.Entries) == 0 {
		return nil
	}
	all := append(append([]*PackageFacts(nil), deps...), self)
	view := newCGView(all)
	own := view.reach(self.Entries)
	var depRoots []string
	for _, d := range deps {
		depRoots = append(depRoots, d.Entries...)
	}
	covered := newCGView(deps).reach(depRoots)

	pkgIn := func(set map[string]bool, pkg string) bool {
		for id := range set {
			if funcPkg(id) == pkg {
				return true
			}
		}
		return false
	}

	var diags []Diagnostic
	for _, pf := range all {
		for _, p := range pf.Pending {
			emit := false
			if p.Func == "" {
				emit = pkgIn(own, p.Pkg) && !pkgIn(covered, p.Pkg)
			} else {
				emit = own[p.Func] && !covered[p.Func]
			}
			if emit {
				diags = append(diags, Diagnostic{
					Pos:      token.Position{Filename: p.File, Line: p.Line, Column: p.Col},
					Analyzer: p.Analyzer,
					Message:  p.Message,
				})
			}
		}
	}
	return dedupDiags(diags)
}

// dedupDiags sorts diagnostics by position and drops exact duplicates
// (same file, line, column, analyzer and message).
func dedupDiags(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

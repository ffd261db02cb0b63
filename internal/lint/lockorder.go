package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockOrder guards the parallel engines' store tier against deadlock by
// construction: the sharded and spill stores nest mutexes (a shard lock
// under the spill registry lock), and two code paths that nest the same
// pair of lock classes in opposite orders can deadlock under the
// work-stealing scheduler. The analyzer
// abstracts every sync.Mutex/RWMutex acquisition to a lock class — the
// owning struct type plus field name (storeShard.mu, SpillStore.spillMu)
// — records the nesting order each function (and, one package deep, its
// callees) acquires them in, and reports every site participating in an
// inconsistent pair: class A taken under class B somewhere and B under A
// somewhere else. Acquiring two locks of the same class nested (two
// shards at once) is reported too: that needs a global order (e.g. by
// index) that a class-level analysis cannot verify. The escape is
// `//lint:lockorder-ok <reason>` naming the order invariant.
//
// The analysis is linear per function: defer'd unlocks hold to function
// end (matching the dominant lock/defer-unlock idiom), explicit unlocks
// release the most recent acquisition of that class, and calls to
// same-package functions propagate the callee's (transitive, in-package)
// acquisitions under the caller's held set.
var LockOrder = &Analyzer{
	Name:    "lockorder",
	Doc:     "flag inconsistent nested mutex acquisition orders across the store/engine lock classes in the deterministic closure",
	Run:     runLockOrder,
	Closure: true,
}

// lockEdge records one nested acquisition: outer held when inner was
// taken at pos.
type lockEdge struct {
	outer, inner string
	pos          token.Pos
}

// lockHeldCall records a call made while holding a lock, for
// interprocedural edge propagation within the package.
type lockHeldCall struct {
	held   string
	callee string
	pos    token.Pos
}

func runLockOrder(pass *Pass) error {
	var edges []lockEdge
	var heldCalls []lockHeldCall
	acquires := make(map[string]map[string]bool) // funcID -> classes
	calls := make(map[string]map[string]bool)    // funcID -> same-pkg callees

	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			id := funcObjID(obj)
			if acquires[id] == nil {
				acquires[id] = make(map[string]bool)
				calls[id] = make(map[string]bool)
			}
			var held []string
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.DeferStmt:
					// A deferred unlock keeps the lock held to function
					// end; a deferred lock is not a thing. Skip.
					return false
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						// Direct call f(...) — record for propagation.
						if fn, ok := calleeFunc(pass, n.Fun); ok && fn.Pkg() == pass.Pkg {
							cid := funcObjID(fn)
							calls[id][cid] = true
							for _, h := range held {
								heldCalls = append(heldCalls, lockHeldCall{h, cid, n.Pos()})
							}
						}
						return true
					}
					switch lockMethodKind(pass, sel) {
					case "lock":
						class := lockClassOf(pass, sel.X)
						acquires[id][class] = true
						for _, h := range held {
							edges = append(edges, lockEdge{h, class, n.Pos()})
						}
						held = append(held, class)
					case "unlock":
						class := lockClassOf(pass, sel.X)
						for i := len(held) - 1; i >= 0; i-- {
							if held[i] == class {
								held = append(held[:i], held[i+1:]...)
								break
							}
						}
					default:
						if fn, ok := calleeFunc(pass, sel.Sel); ok && fn.Pkg() == pass.Pkg {
							cid := funcObjID(fn)
							calls[id][cid] = true
							for _, h := range held {
								heldCalls = append(heldCalls, lockHeldCall{h, cid, n.Pos()})
							}
						}
					}
				}
				return true
			})
		}
	}

	// Transitive in-package acquisitions: effAcquire[f] = own ∪ callees'.
	effAcquire := make(map[string]map[string]bool, len(acquires))
	for id, own := range acquires {
		eff := make(map[string]bool, len(own))
		for c := range own {
			eff[c] = true
		}
		effAcquire[id] = eff
	}
	for changed := true; changed; {
		changed = false
		for id, callees := range calls {
			for cid := range callees {
				for c := range effAcquire[cid] {
					if !effAcquire[id][c] {
						effAcquire[id][c] = true
						changed = true
					}
				}
			}
		}
	}
	for _, hc := range heldCalls {
		for c := range effAcquire[hc.callee] {
			edges = append(edges, lockEdge{hc.held, c, hc.pos})
		}
	}

	// Conflicts: a pair ordered both ways, or a self-nested class.
	ordered := make(map[[2]string]bool, len(edges))
	for _, e := range edges {
		ordered[[2]string{e.outer, e.inner}] = true
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].pos != edges[j].pos {
			return edges[i].pos < edges[j].pos
		}
		return edges[i].outer+"\x00"+edges[i].inner < edges[j].outer+"\x00"+edges[j].inner
	})
	reported := make(map[token.Pos]bool)
	for _, e := range edges {
		if reported[e.pos] {
			continue
		}
		var msg string
		switch {
		case e.outer == e.inner:
			msg = fmt.Sprintf("nested acquisition of two %s locks: a class-level analysis cannot verify a global order, so two goroutines interleaving these can deadlock; impose an index order and annotate //lint:lockorder-ok <reason>", e.outer)
		case ordered[[2]string{e.inner, e.outer}]:
			msg = fmt.Sprintf("inconsistent lock order: %s is acquired while holding %s here, but elsewhere %s is acquired while holding %s — under the parallel schedulers the two paths can deadlock; pick one order and annotate the invariant with //lint:lockorder-ok <reason>", e.inner, e.outer, e.outer, e.inner)
		default:
			continue
		}
		reported[e.pos] = true
		if pass.annotated(e.pos, "lockorder-ok") {
			continue
		}
		pass.ReportfClosure(e.pos, "%s", msg)
	}
	return nil
}

// lockMethodKind classifies a selector call as a mutex acquisition,
// release, or neither, by resolving the method to the sync package.
func lockMethodKind(pass *Pass, sel *ast.SelectorExpr) string {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	recv, _ := recvTypeName(sig.Recv().Type())
	if recv != "Mutex" && recv != "RWMutex" {
		return ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return "lock"
	case "Unlock", "RUnlock":
		return "unlock"
	}
	return ""
}

// lockClassOf abstracts the receiver expression of a mutex method to its
// class: the owning type plus field name for the common `owner.mu`
// shape, otherwise the expression's (dereferenced) type label — which
// covers locks reached through an embedded mutex or a bare variable.
func lockClassOf(pass *Pass, x ast.Expr) string {
	if sel, ok := x.(*ast.SelectorExpr); ok {
		if tv, ok := pass.TypesInfo.Types[sel.X]; ok {
			return lockTypeLabel(tv.Type) + "." + sel.Sel.Name
		}
	}
	if tv, ok := pass.TypesInfo.Types[x]; ok {
		return lockTypeLabel(tv.Type)
	}
	return "<unknown>"
}

// lockTypeLabel names a type for lock-class purposes, through pointers.
func lockTypeLabel(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return typeLabel(t)
}

// calleeFunc resolves a call-position expression to the function object
// it names, unwrapping parens.
func calleeFunc(pass *Pass, e ast.Expr) (*types.Func, bool) {
	for {
		if p, ok := e.(*ast.ParenExpr); ok {
			e = p.X
			continue
		}
		break
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil, false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || interfaceMethod(fn) {
		return nil, false
	}
	return fn, true
}

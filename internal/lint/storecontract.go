package lint

import (
	"go/ast"
	"go/types"
)

// StoreContract polices the hint-only membership probe of the visited
// stores. `Has(key) bool` is documented as non-authoritative: a store may
// answer without recording (HasStore), a wrapper may degrade to a blanket
// "false" when its inner store cannot answer, and the spill tier may
// answer from disk state that concurrent inserts are still moving.
// Branching on it to skip an insert, skip an expansion, or shape a verdict
// is only sound at sites whose surrounding algorithm tolerates the stale
// answers it can get — today the BFS queue proviso's level snapshot, and
// the successor probe of DFS and BFS, which drops only successors Has
// reports present (stores are insert-only, so a true answer stays true)
// and keeps the rest. Every other call in a deterministic package is
// reported.
//
// Escapes: a method itself named Has (interface delegation is how the
// store wrappers compose), or `//lint:has-ok <reason>` citing why a stale
// or degraded answer stays sound at this site.
var StoreContract = &Analyzer{
	Name: "storecontract",
	Doc:  "flag authoritative use of the hint-only Store.Has probe outside the documented proviso sites",
	Run:  runStoreContract,
}

func runStoreContract(pass *Pass) error {
	if !DeterministicPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Name.Name == "Has" {
				continue // delegation: a Has implementation may consult inner Has
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Has" {
					return true
				}
				if !isHasProbe(pass, sel) {
					return true
				}
				if pass.annotated(call.Pos(), "has-ok") {
					return true
				}
				pass.Reportf(call.Pos(), "Store.Has is a hint-only membership probe (wrappers may degrade it, concurrent inserts may race it); do not use it authoritatively — use Seen, or annotate //lint:has-ok <reason> if stale answers stay sound here")
				return true
			})
		}
	}
	return nil
}

// isHasProbe reports whether sel resolves to a method Has(string) bool —
// the visited-store probe signature.
func isHasProbe(pass *Pass, sel *ast.SelectorExpr) bool {
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	p, okP := sig.Params().At(0).Type().(*types.Basic)
	r, okR := sig.Results().At(0).Type().(*types.Basic)
	return okP && okR && p.Kind() == types.String && r.Kind() == types.Bool
}

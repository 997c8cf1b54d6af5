package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// kernelScheduleName reports whether the call is a closure-form kernel
// scheduling method (At/After on the SimPath kernel) and returns the
// method name. The pooled forms AtCall/AfterCall are exactly what the
// hot-path analyzer steers code toward, so they are not matched here.
func kernelScheduleName(p *pkg, call *ast.CallExpr, cfg Config) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection := p.info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return "", false
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != cfg.SimPath {
		return "", false
	}
	name := sel.Sel.Name
	if name != "At" && name != "After" {
		return "", false
	}
	return name, true
}

// checkHotPath applies the closure-in-hotpath analyzer: inside the
// packages listed in cfg.HotPaths (by default the network and core
// packages — the per-message and per-transaction fan-out layers), a
// kernel At/After call whose function argument is a closure capturing a
// variable declared in an enclosing loop is a finding. Such a closure
// cannot be hoisted: it allocates once per iteration, on exactly the
// paths the ZeroAlloc tests in sim and network protect. The fix is the
// pooled AtCall/AfterCall form, or hoisting the state the closure needs
// into a reused record.
func checkHotPath(mod *module, cfg Config) []Diagnostic {
	hot := make(map[string]bool, len(cfg.HotPaths))
	for _, h := range cfg.HotPaths {
		hot[h] = true
	}
	var diags []Diagnostic
	for _, p := range mod.sorted() {
		if !hot[p.path] {
			continue
		}
		for _, f := range p.files {
			// Collect every loop in the file; a call's enclosing loops
			// are the ones whose source range contains it.
			var loops []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					loops = append(loops, n)
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				method, ok := kernelScheduleName(p, call, cfg)
				if !ok {
					return true
				}
				for _, arg := range call.Args {
					lit, ok := arg.(*ast.FuncLit)
					if !ok {
						continue
					}
					if v, ok := capturesLoopVar(p, lit, loops); ok {
						diags = append(diags, Diagnostic{
							Pos:      mod.fset.Position(call.Pos()),
							Analyzer: AnalyzerHotPath,
							Message: fmt.Sprintf(
								"hot-path package %s passes %s a closure capturing loop variable %s: one allocation per iteration; use the pooled %sCall form or hoist the state",
								p.path, method, v, method),
						})
					}
				}
				return true
			})
		}
	}
	return diags
}

// capturesLoopVar reports whether lit uses a variable declared inside a
// loop that encloses lit — i.e. state that is fresh every iteration, so
// the closure must be too.
func capturesLoopVar(p *pkg, lit *ast.FuncLit, loops []ast.Node) (string, bool) {
	var name string
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Declared inside the literal itself: not a capture.
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true
		}
		for _, loop := range loops {
			if loop.Pos() > lit.Pos() || lit.End() > loop.End() {
				continue // loop does not enclose the literal
			}
			if v.Pos() >= loop.Pos() && v.Pos() < lit.Pos() {
				name, found = id.Name, true
				return false
			}
		}
		return true
	})
	return name, found
}

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

// checkHotPath applies the closure-in-hotpath analyzer: inside the hot
// packages — cfg.HotPaths, by default the network package plus every
// package declaring a CacheSide or MemSide implementation, i.e. every
// per-message and per-reference layer — any closure-form kernel At/After
// call is a finding. A func() event costs an allocation each time it is
// scheduled with fresh state, on exactly the paths the ZeroAlloc tests
// protect; the fix is the pooled AtCall/AfterCall form with the state in
// the component's own fields or a reused record.
func checkHotPath(mod *module, cfg Config) []Diagnostic {
	hot := make(map[string]bool)
	for _, h := range cfg.HotPaths {
		hot[h] = true
	}
	if cfg.HotPaths == nil {
		hot[cfg.NetPath] = true
		protoPkg := mod.pkgs[cfg.ProtoPath]
		for _, name := range []string{cfg.CacheIface, cfg.MemIface} {
			iface := ifaceIn(protoPkg, name)
			for _, p := range mod.sorted() {
				if iface != nil && implementsIn(p, iface) {
					hot[p.path] = true
				}
			}
		}
	}
	var diags []Diagnostic
	for _, p := range mod.sorted() {
		if !hot[p.path] {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if method, ok := kernelScheduleName(p, call, cfg); ok {
					diags = append(diags, Diagnostic{
						Pos:      mod.fset.Position(call.Pos()),
						Analyzer: AnalyzerHotPath,
						Message: fmt.Sprintf(
							"hot-path package %s schedules a closure through %s: one allocation per event; use the pooled %sCall form with the state in a field or reused record",
							p.path, method, method),
					})
				}
				return true
			})
		}
	}
	return diags
}

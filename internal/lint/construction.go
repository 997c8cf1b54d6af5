package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// checkConstruction applies the pooled-construction analyzer: an
// orchestrator package (the experiment-campaign engine) must not call an
// exported New* constructor declared in a machine-component package. The
// pooled machine graph exists so that a sweep constructs each worker's
// caches, memory modules, directories and networks exactly once and
// resets them between runs; a component constructor reappearing in the
// orchestrator is per-run construction sneaking back in — the regression
// the campaign workload's allocs_per_ref bound (go run ./bench) measures
// after the fact, caught here before the code runs. The sanctioned entry
// points (the Runner constructor that owns the pool) are listed in
// cfg.AllowedConstructors; anything else needs a //lint:allow
// pooled-construction directive with a written reason, as a one-shot
// path like trace export does.
func checkConstruction(mod *module, cfg Config) []Diagnostic {
	comp := make(map[string]bool, len(cfg.ComponentPaths))
	for _, c := range cfg.ComponentPaths {
		comp[c] = true
	}
	orch := make(map[string]bool, len(cfg.Orchestrators))
	for _, o := range cfg.Orchestrators {
		orch[o] = true
	}
	allowed := make(map[string]bool, len(cfg.AllowedConstructors))
	for _, a := range cfg.AllowedConstructors {
		allowed[a] = true
	}
	var diags []Diagnostic
	for _, p := range mod.sorted() {
		if !orch[p.path] {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var id *ast.Ident
				switch fun := call.Fun.(type) {
				case *ast.SelectorExpr:
					id = fun.Sel
				case *ast.Ident:
					id = fun
				default:
					return true
				}
				obj, ok := p.info.Uses[id].(*types.Func)
				if !ok || obj.Pkg() == nil || !comp[obj.Pkg().Path()] {
					return true
				}
				if sig, ok := obj.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true // methods are not constructors
				}
				name := obj.Name()
				if !constructorName(name) {
					return true
				}
				if allowed[obj.Pkg().Path()+"."+name] {
					return true
				}
				diags = append(diags, Diagnostic{
					Pos:      mod.fset.Position(call.Pos()),
					Analyzer: AnalyzerConstruction,
					Message: fmt.Sprintf(
						"orchestrator package %s calls component constructor %s.%s: the pooled machine graph is built once per worker and reset between runs; construct through the pooled runner or document the one-shot path with //lint:allow",
						p.path, obj.Pkg().Path(), name),
				})
				return true
			})
		}
	}
	return diags
}

// constructorName matches the Go constructor convention: New, or New
// followed by an exported-style name (NewModule, NewSerializer). A lower
// continuation (Newt) is an ordinary word, not a constructor.
func constructorName(name string) bool {
	if name == "New" {
		return true
	}
	if len(name) > 3 && name[:3] == "New" {
		c := name[3]
		return c >= 'A' && c <= 'Z'
	}
	return false
}

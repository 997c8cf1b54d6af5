package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// kernelReachable computes the determinism scope: every in-scope module
// package that imports the event-kernel package (directly or
// transitively), plus the kernel itself, plus everything those packages
// depend on inside the module — i.e. all code that can execute inside
// the event loop. Packages outside cfg.Scope (command-line mains,
// examples) and the explicitly cfg.Exempt ones (the live concurrent
// cross-validator, which reaches the kernel only through the shared
// observability types) are out.
func kernelReachable(mod *module, cfg Config) map[string]bool {
	exempt := make(map[string]bool, len(cfg.Exempt))
	for _, e := range cfg.Exempt {
		exempt[e] = true
	}
	inScope := func(path string) bool {
		if exempt[path] {
			return false
		}
		return path == cfg.Scope || strings.HasPrefix(path, cfg.Scope+"/") || cfg.Scope == mod.path
	}
	// Fixpoint: which in-scope packages reach the kernel via imports.
	reaches := map[string]bool{cfg.SimPath: true}
	for changed := true; changed; {
		changed = false
		for _, p := range mod.sorted() {
			if reaches[p.path] || !inScope(p.path) {
				continue
			}
			for _, imp := range p.modImports {
				if reaches[imp] {
					reaches[p.path] = true
					changed = true
					break
				}
			}
		}
	}
	// Closure: everything an event-loop package depends on also runs
	// inside the loop.
	set := make(map[string]bool)
	var add func(path string)
	add = func(path string) {
		if set[path] || !inScope(path) {
			return
		}
		set[path] = true
		if p := mod.pkgs[path]; p != nil {
			for _, imp := range p.modImports {
				add(imp)
			}
		}
	}
	for path := range reaches {
		add(path)
	}
	return set
}

// schedulingCall reports whether the call expression schedules an event:
// a method on the kernel (AtCall/AfterCall) or on the network
// (Send/Broadcast).
func schedulingCall(p *pkg, call *ast.CallExpr, cfg Config) (string, bool) {
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
	var path string
	switch t := recv.(type) {
	case *types.Named:
		if t.Obj().Pkg() != nil {
			path = t.Obj().Pkg().Path()
		}
	}
	// Interface receivers (network.Network) carry the package of the
	// interface's declaration.
	if path == "" {
		if named, ok := selection.Recv().(*types.Named); ok && named.Obj().Pkg() != nil {
			path = named.Obj().Pkg().Path()
		}
	}
	name := sel.Sel.Name
	switch {
	case path == cfg.SimPath && (name == "AtCall" || name == "AfterCall"):
		return "schedules a kernel event via " + name, true
	case path == cfg.NetPath && (name == "Send" || name == "Broadcast"):
		return "sends a network message via " + name, true
	}
	return "", false
}

// checkDeterminism applies the determinism analyzer to every package in
// the kernel-reachable scope. Packages listed in cfg.Orchestrators are a
// package-scope exception to exactly one rule: they may start goroutines,
// because their job is running many complete, hermetic simulations in
// parallel (each kernel confined to one goroutine). The exemption must
// not leak downward, so a kernel-reachable non-orchestrator package that
// imports an orchestrator is itself a diagnostic.
func checkDeterminism(mod *module, cfg Config) []Diagnostic {
	scope := kernelReachable(mod, cfg)
	orch := make(map[string]bool, len(cfg.Orchestrators))
	for _, o := range cfg.Orchestrators {
		orch[o] = true
	}
	var diags []Diagnostic
	report := func(pos ast.Node, p *pkg, msg string) {
		diags = append(diags, Diagnostic{
			Pos:      mod.fset.Position(pos.Pos()),
			Analyzer: AnalyzerDeterminism,
			Message:  msg,
		})
	}
	for _, p := range mod.sorted() {
		if !scope[p.path] {
			continue
		}
		for _, f := range p.files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if path == "math/rand" || path == "math/rand/v2" {
					report(imp, p, fmt.Sprintf(
						"event-kernel package %s imports %s; use the deterministic internal/rng instead", p.path, path))
				}
				if orch[path] && !orch[p.path] {
					report(imp, p, fmt.Sprintf(
						"event-kernel package %s imports orchestrator package %s: the goroutine exemption must stay above the event loop", p.path, path))
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					if orch[p.path] {
						return true
					}
					report(n, p, fmt.Sprintf(
						"go statement in event-kernel package %s: goroutine interleaving breaks replayability", p.path))
				case *ast.SelectorExpr:
					if obj, ok := p.info.Uses[n.Sel].(*types.Func); ok &&
						obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == "Now" {
						report(n, p, "time.Now in event-kernel package: simulated time must come from the kernel clock")
					}
				case *ast.CallExpr:
					// The observability package is held to a stricter
					// standard than the rest of the scope: any scheduling
					// call at all breaks its passivity contract, not just
					// one inside a map range.
					if p.path == cfg.ObsPath {
						if what, ok := schedulingCall(p, n, cfg); ok {
							report(n, p, fmt.Sprintf(
								"observability package %s must stay passive but %s", p.path, what))
						}
					}
				case *ast.RangeStmt:
					tv, ok := p.info.Types[n.X]
					if !ok {
						return true
					}
					if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
						return true
					}
					ast.Inspect(n.Body, func(b ast.Node) bool {
						call, ok := b.(*ast.CallExpr)
						if !ok {
							return true
						}
						if id, ok := call.Fun.(*ast.Ident); ok {
							if obj, ok := p.info.Uses[id].(*types.Builtin); ok && obj.Name() == "append" {
								report(call, p,
									"append inside a range over a map: iteration order leaks into the result slice")
								return true
							}
						}
						if what, ok := schedulingCall(p, call, cfg); ok {
							report(call, p, fmt.Sprintf(
								"range over a map %s: iteration order leaks into the event schedule", what))
						}
						return true
					})
					return true
				}
				return true
			})
		}
	}
	return diags
}

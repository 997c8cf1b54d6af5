// Package lint is twobit lint: a protocol-aware static analysis pass
// over this module, built entirely on the standard library's go/parser,
// go/ast and go/types (source importer). It proves properties the
// runtime invariant checker and the bounded model checker cannot see
// until a simulation runs:
//
//   - exhaustive-switch: every switch over a protocol/cache/directory
//     state or message-kind enum (any defined integer type with a
//     declared constant set) either covers every constant or carries a
//     default that panics or returns, so a refactor cannot silently drop
//     a protocol transition.
//
//   - handler-completeness: every message kind declared in internal/msg
//     is wired into at least one cache-side package (one containing a
//     proto.CacheSide implementation) and at least one memory-side
//     package (one containing a proto.MemSide implementation), so adding
//     a message without handling both ends fails the build.
//
//   - dead-transition: the inverse of handler-completeness — every
//     dispatch arm (`case msg.KindX` in a cache-side or memory-side
//     handler) must be reachable from some send site that can deliver
//     that kind to that side. Destinations built with CacheNode narrow a
//     send to the cache side, CtrlFor/CtrlNode to the memory side, and
//     anything unresolvable (a variable, a Broadcast) counts for both,
//     so the analyzer under-reports rather than accusing live arms. A
//     dead arm is a transition the model checker (internal/mcheck) can
//     never exercise: protocol code that survives every closure because
//     it no longer exists in the protocol.
//
//   - determinism: packages reachable from the event kernel (they import
//     internal/sim, directly or transitively, plus everything those
//     packages depend on) must not call time.Now, import math/rand,
//     start goroutines, or range over a map while scheduling events or
//     appending to slices in the loop body — the leaks that would make
//     two runs of the same seed diverge. The observability package is
//     held to a stricter passivity rule: it may read the kernel clock
//     but any scheduling call at all is a finding, so instruments can
//     never perturb the event schedule they measure.
//
//   - pooled-construction: orchestrator packages (the campaign engine)
//     must not call exported New* constructors declared in the
//     machine-component packages (caches, memory, controllers, networks,
//     the system builders). The pooled machine graph constructs each
//     worker's components once and resets them between runs; a component
//     constructor reappearing in the orchestrator is per-run
//     construction sneaking back past the pool — the exact regression
//     the campaign workload's allocs_per_ref bound (go run ./bench)
//     exists to catch, flagged here before anything runs. The
//     sanctioned pool entry point (system.NewRunner) is exempt;
//     genuinely one-shot paths carry a //lint:allow with a written
//     reason.
//
// A finding can be suppressed only by an explicit escape hatch on the
// offending line (or the line above):
//
//	//lint:allow <analyzer> <reason>
//
// where <reason> is mandatory. The analyzer names are
// "exhaustive-switch", "handler-completeness", "dead-transition",
// "determinism" and "pooled-construction".
//
// The analyzers run in two places: `go run ./cmd/twobit lint ./...`
// for build pipelines, and TestModuleIsLintClean in this package so that
// plain `go test ./...` enforces them forever.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Analyzer names, used in diagnostics and //lint:allow directives.
const (
	AnalyzerExhaustive     = "exhaustive-switch"
	AnalyzerHandlers       = "handler-completeness"
	AnalyzerDeterminism    = "determinism"
	AnalyzerDeadTransition = "dead-transition"
	AnalyzerConstruction   = "pooled-construction"
	// AnalyzerDirective reports malformed //lint:allow directives; it
	// cannot itself be suppressed.
	AnalyzerDirective = "allow-directive"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional path:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Config points the analyzers at a module. The zero value of every field
// except Dir is derived from the module's own path, so production use is
// just Run(Config{Dir: dir}); the overrides exist for the fixture tests,
// which check the analyzers against tiny self-contained modules.
type Config struct {
	// Dir is any directory inside the module to analyze.
	Dir string

	// MsgPath is the package declaring the message-kind enum.
	// Default: <module>/internal/msg.
	MsgPath string
	// MsgEnum is the name of the message-kind type. Default: Kind.
	MsgEnum string
	// ProtoPath is the package declaring the cache-side and memory-side
	// interfaces. Default: <module>/internal/proto.
	ProtoPath string
	// CacheIface and MemIface are the interface names classifying a
	// package as cache-side or memory-side. Defaults: CacheSide, MemSide.
	CacheIface string
	MemIface   string
	// SimPath is the event-kernel package; reachability from it defines
	// the determinism scope. Default: <module>/internal/sim.
	SimPath string
	// NetPath is the network package whose Send/Broadcast methods count
	// as event scheduling. Default: <module>/internal/network.
	NetPath string
	// ObsPath is the observability package, which must stay passive: it
	// may read the kernel clock but must never schedule events or send
	// messages, anywhere — not just inside map ranges — because an
	// instrument that perturbs the event schedule silently invalidates
	// the "recording off ≡ recording on" guarantee the test suite pins.
	// Default: <module>/internal/obs.
	ObsPath string
	// Scope restricts the determinism analyzer to import paths with this
	// prefix. Default: <module>/internal (the whole module when no
	// internal directory exists, as in the fixtures).
	Scope string
	// Exempt lists packages excluded from the determinism scope even when
	// they reach the event kernel through imports. The live concurrent
	// cross-validator runs real goroutines by design — that is its whole
	// point — and imports the observability package (which types sim
	// time) precisely so its counters mirror the deterministic
	// simulator's. Default: <module>/internal/livesim.
	Exempt []string
	// Orchestrators lists packages that legitimately run event kernels on
	// worker goroutines — each kernel confined to one goroutine — such as
	// the experiment-campaign engine. The go-statement rule is waived for
	// them as a package-scope policy (no per-line directives), and in
	// exchange no kernel-reachable package may import them: concurrency
	// must stay above complete simulations, never inside the event loop.
	// Every other determinism rule (math/rand, time.Now, map-order leaks)
	// still applies to them. Default: <module>/internal/sweep.
	Orchestrators []string
	// ComponentPaths lists the machine-component packages whose exported
	// New* constructors the orchestrators must not call: component
	// lifetimes belong to the pooled machine graph, which is built once
	// per worker and reset between runs. Default: the cache, memory,
	// core, classical, writeonce, software, proto, network, directory,
	// oracle and system packages.
	ComponentPaths []string
	// AllowedConstructors lists fully qualified constructors ("path.Func")
	// exempt from the pooled-construction rule — the sanctioned entry
	// points that own the pool itself. Default: <module>/internal/system's
	// NewRunner.
	AllowedConstructors []string
}

func (c *Config) fill(mod *module) {
	def := func(p *string, v string) {
		if *p == "" {
			*p = v
		}
	}
	def(&c.MsgPath, mod.path+"/internal/msg")
	def(&c.MsgEnum, "Kind")
	def(&c.ProtoPath, mod.path+"/internal/proto")
	def(&c.CacheIface, "CacheSide")
	def(&c.MemIface, "MemSide")
	def(&c.SimPath, mod.path+"/internal/sim")
	def(&c.NetPath, mod.path+"/internal/network")
	def(&c.ObsPath, mod.path+"/internal/obs")
	if c.Scope == "" {
		c.Scope = mod.path + "/internal"
		if _, ok := mod.pkgs[c.SimPath]; !ok {
			c.Scope = mod.path
		}
	}
	if c.Exempt == nil {
		c.Exempt = []string{mod.path + "/internal/livesim"}
	}
	if c.Orchestrators == nil {
		c.Orchestrators = []string{mod.path + "/internal/sweep"}
	}
	if c.ComponentPaths == nil {
		c.ComponentPaths = []string{
			mod.path + "/internal/cache",
			mod.path + "/internal/memory",
			mod.path + "/internal/core",
			mod.path + "/internal/classical",
			mod.path + "/internal/writeonce",
			mod.path + "/internal/software",
			mod.path + "/internal/proto",
			mod.path + "/internal/network",
			mod.path + "/internal/directory",
			mod.path + "/internal/oracle",
			mod.path + "/internal/system",
		}
	}
	if c.AllowedConstructors == nil {
		c.AllowedConstructors = []string{mod.path + "/internal/system.NewRunner"}
	}
}

// Run loads the module containing cfg.Dir and applies every
// analyzer, returning the surviving diagnostics sorted by position.
// A non-nil error means the module could not be loaded or type-checked;
// an empty diagnostic slice with a nil error means the tree is clean.
func Run(cfg Config) ([]Diagnostic, error) {
	mod, err := loadModule(cfg.Dir)
	if err != nil {
		return nil, err
	}
	cfg.fill(mod)

	allows, diags := collectAllows(mod)
	diags = append(diags, checkExhaustive(mod)...)
	diags = append(diags, checkHandlers(mod, cfg)...)
	diags = append(diags, checkDeadTransitions(mod, cfg)...)
	diags = append(diags, checkDeterminism(mod, cfg)...)
	diags = append(diags, checkConstruction(mod, cfg)...)

	kept := diags[:0]
	for _, d := range diags {
		if d.Analyzer != AnalyzerDirective && allows.suppresses(d) {
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return kept, nil
}

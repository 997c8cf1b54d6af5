package lint_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"twobit/internal/lint"
)

// fixture returns the absolute root of a testdata module.
func fixture(t *testing.T, name string) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// run lints one fixture module and renders each diagnostic with a
// fixture-relative path so the expectations below stay portable.
func run(t *testing.T, cfg lint.Config) []string {
	t.Helper()
	diags, err := lint.Run(cfg)
	if err != nil {
		t.Fatalf("lint.Run(%s): %v", cfg.Dir, err)
	}
	var got []string
	for _, d := range diags {
		rel, err := filepath.Rel(cfg.Dir, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		got = append(got, fmt.Sprintf("%s:%d:%d: [%s] %s",
			filepath.ToSlash(rel), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message))
	}
	return got
}

func expect(t *testing.T, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) || i < len(want); i++ {
		g, w := "", ""
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("diagnostic %d:\n  got  %s\n  want %s", i, g, w)
		}
	}
}

func TestExhaustiveFixtures(t *testing.T) {
	expect(t, run(t, lint.Config{Dir: fixture(t, "exhaustgood")}), nil)

	expect(t, run(t, lint.Config{Dir: fixture(t, "exhaustbad")}), []string{
		"exhaust.go:19:2: [exhaustive-switch] non-exhaustive switch over exhaustbad.Color: missing Blue (add the cases or a terminating default)",
		"exhaust.go:30:2: [exhaustive-switch] switch over exhaustbad.Color has a default that neither panics nor returns, hiding missing Green, Blue",
	})
}

func TestDeadTransitionFixtures(t *testing.T) {
	expect(t, run(t, lint.Config{
		Dir:       fixture(t, "deadtransgood"),
		MsgPath:   "deadtransgood/msg",
		ProtoPath: "deadtransgood/proto",
	}), nil)

	expect(t, run(t, lint.Config{
		Dir:       fixture(t, "deadtransbad"),
		MsgPath:   "deadtransbad/msg",
		ProtoPath: "deadtransbad/proto",
	}), []string{
		"agent/agent.go:18:7: [dead-transition] dead transition: no send site delivers msg.KindDrain to a cache-side handler",
	})
}

func TestHandlerFixtures(t *testing.T) {
	expect(t, run(t, lint.Config{
		Dir:       fixture(t, "handlergood"),
		MsgPath:   "handlergood/msg",
		ProtoPath: "handlergood/proto",
	}), nil)

	expect(t, run(t, lint.Config{
		Dir:       fixture(t, "handlerbad"),
		MsgPath:   "handlerbad/msg",
		ProtoPath: "handlerbad/proto",
	}), []string{
		"msg/msg.go:12:2: [handler-completeness] message kind KindPong: no memory-side dispatch site (searched MemSide implementations in: handlerbad/ctrl)",
		"msg/msg.go:13:2: [handler-completeness] message kind KindOrphan: no cache-side dispatch site (searched CacheSide implementations in: handlerbad/agent); no memory-side dispatch site (searched MemSide implementations in: handlerbad/ctrl)",
	})
}

func TestDeterminismFixtures(t *testing.T) {
	// The good module also exercises the //lint:allow escape hatch (a
	// suppressed goroutine in eng) and the scope rule (an unsuppressed
	// goroutine in free, which never imports the kernel).
	expect(t, run(t, lint.Config{
		Dir:     fixture(t, "determgood"),
		SimPath: "determgood/sim",
		Scope:   "determgood",
	}), nil)

	// An undeclared orchestrator gets no exemption: the same module with
	// an empty orchestrator list must flag orch's goroutines.
	bad := run(t, lint.Config{
		Dir:           fixture(t, "determorch"),
		SimPath:       "determorch/sim",
		Scope:         "determorch",
		Orchestrators: []string{},
	})
	if len(bad) != 3 {
		t.Errorf("undeclared orchestrator: got %d diagnostics, want 3 goroutine findings:\n%v", len(bad), bad)
	}

	expect(t, run(t, lint.Config{
		Dir:     fixture(t, "determbad"),
		SimPath: "determbad/sim",
		Scope:   "determbad",
	}), []string{
		"eng/eng.go:6:2: [determinism] event-kernel package determbad/eng imports math/rand; use the deterministic internal/rng instead",
		"eng/eng.go:20:9: [determinism] time.Now in event-kernel package: simulated time must come from the kernel clock",
		"eng/eng.go:25:2: [determinism] go statement in event-kernel package determbad/eng: goroutine interleaving breaks replayability",
		"eng/eng.go:33:9: [determinism] append inside a range over a map: iteration order leaks into the result slice",
		"eng/eng.go:34:3: [determinism] range over a map schedules a kernel event via AfterCall: iteration order leaks into the event schedule",
	})
}

func TestObsPassivityFixture(t *testing.T) {
	// The observability package may read the clock but must never
	// schedule: a bare kernel.AfterCall or AtCall — outside any map range
	// — is a finding there and only there, whichever instrument makes it.
	expect(t, run(t, lint.Config{
		Dir:     fixture(t, "determobs"),
		SimPath: "determobs/sim",
		ObsPath: "determobs/obs",
		Scope:   "determobs",
	}), []string{
		"obs/obs.go:21:2: [determinism] observability package determobs/obs must stay passive but schedules a kernel event via AfterCall",
		"obs/span.go:22:2: [determinism] observability package determobs/obs must stay passive but schedules a kernel event via AtCall",
		"obs/timeseries.go:24:2: [determinism] observability package determobs/obs must stay passive but schedules a kernel event via AtCall",
	})
}

func TestConstructionFixtures(t *testing.T) {
	// Pool-respecting orchestration is clean: construction flows through
	// the sanctioned entry point, the per-run path only resets, and the
	// one documented one-shot construction is suppressed by its
	// //lint:allow.
	expect(t, run(t, lint.Config{
		Dir:                 fixture(t, "poolgood"),
		Scope:               "poolgood",
		Orchestrators:       []string{"poolgood/orch"},
		ComponentPaths:      []string{"poolgood/comp"},
		AllowedConstructors: []string{"poolgood/comp.NewPool"},
	}), nil)

	// Component constructors inside the orchestrator's run loop are
	// findings; the allowed entry point and the New-prefixed non-
	// constructor are not.
	expect(t, run(t, lint.Config{
		Dir:                 fixture(t, "poolbad"),
		Scope:               "poolbad",
		Orchestrators:       []string{"poolbad/orch"},
		ComponentPaths:      []string{"poolbad/comp"},
		AllowedConstructors: []string{"poolbad/comp.NewPool"},
	}), []string{
		"orch/orch.go:13:8: [pooled-construction] orchestrator package poolbad/orch calls component constructor poolbad/comp.New: the pooled machine graph is built once per worker and reset between runs; construct through the pooled runner or document the one-shot path with //lint:allow",
		"orch/orch.go:14:8: [pooled-construction] orchestrator package poolbad/orch calls component constructor poolbad/comp.NewModule: the pooled machine graph is built once per worker and reset between runs; construct through the pooled runner or document the one-shot path with //lint:allow",
	})

	// Outside the declared orchestrators the same calls are legal:
	// component packages construct each other freely.
	expect(t, run(t, lint.Config{
		Dir:            fixture(t, "poolbad"),
		Scope:          "poolbad",
		Orchestrators:  []string{},
		ComponentPaths: []string{"poolbad/comp"},
	}), nil)
}

func TestOrchestratorFixtures(t *testing.T) {
	// A declared orchestrator may start goroutines with no per-line
	// directives; the rest of the module stays under the full analyzer.
	expect(t, run(t, lint.Config{
		Dir:           fixture(t, "determorch"),
		SimPath:       "determorch/sim",
		Scope:         "determorch",
		Orchestrators: []string{"determorch/orch"},
	}), nil)

	// The exemption must not leak below the kernel boundary: a
	// kernel-reachable package importing an orchestrator is a finding.
	expect(t, run(t, lint.Config{
		Dir:           fixture(t, "determorchbad"),
		SimPath:       "determorchbad/sim",
		Scope:         "determorchbad",
		Orchestrators: []string{"determorchbad/orch"},
	}), []string{
		"eng/eng.go:6:2: [determinism] event-kernel package determorchbad/eng imports orchestrator package determorchbad/orch: the goroutine exemption must stay above the event loop",
	})
}

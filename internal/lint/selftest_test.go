package lint_test

import (
	"testing"

	"twobit/internal/lint"
)

// TestModuleIsLintClean runs every analyzer over this whole module, so a
// plain `go test ./...` enforces switch exhaustiveness, handler
// completeness and kernel determinism forever — no separate CI step
// required. twobit lint is the same engine for use in pipelines.
func TestModuleIsLintClean(t *testing.T) {
	diags, err := lint.Run(lint.Config{Dir: "."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("%d findings; fix them or add a //lint:allow <analyzer> <reason> with justification", len(diags))
	}
}

package twobit

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docRef matches what the documents use to name a file: a backticked span
// or the target of a markdown link.
var docRef = regexp.MustCompile("`([^`\n]+)`|\\]\\(([^)\\s]+)\\)")

// goSymbol matches an exported identifier (and any selectors after it)
// qualified by the package path before it; file extensions are lower-case.
var goSymbol = regexp.MustCompile(`\.[A-Z][\w.]*$`)

// TestDocPathsExist keeps deletions honest: every repo-relative path that
// README, DESIGN or EXPERIMENTS names — anything under a source directory,
// and any root-level document or JSON file — must exist, so a removed file
// cannot leave a dangling reference behind.
func TestDocPathsExist(t *testing.T) {
	dirs := []string{"scripts/", "cmd/", "internal/", "examples/", "bench/"}
	rootFile := regexp.MustCompile(`^[A-Z][A-Za-z0-9_]*\.(json|md)$`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docRef.FindAllStringSubmatch(string(text), -1) {
			ref := m[1] + m[2]
			if f := strings.Fields(ref); len(f) > 0 {
				ref = f[0] // `cmd/sweep -telemetry` names cmd/sweep
			}
			ref = strings.TrimPrefix(ref, "./")
			ref = strings.TrimRight(ref, ".,;:")
			if i := strings.IndexByte(ref, '#'); i >= 0 {
				ref = ref[:i] // link anchor
			}
			ref = goSymbol.ReplaceAllString(ref, "") // `internal/stats.TopK` names internal/stats
			inDir := false
			for _, d := range dirs {
				inDir = inDir || strings.HasPrefix(ref, d)
			}
			if !inDir && !rootFile.MatchString(ref) {
				continue
			}
			if strings.ContainsAny(ref, "<>{}…$") {
				continue // a placeholder or brace set, not one path
			}
			if matches, _ := filepath.Glob(ref); len(matches) == 0 {
				t.Errorf("%s names %q, which does not exist", doc, ref)
			}
		}
	}
}

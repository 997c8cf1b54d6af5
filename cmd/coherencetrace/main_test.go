package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRun drives the command through its error exits — each one line on
// stderr, exit 1, and a bad -format caught before -o creates anything —
// then exports one run twice, to stdout and to a file, and requires the
// same bytes both times, as the command's doc promises.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	plan := filepath.Join(dir, "plan.json")
	const body = `{"name":"p","protocols":["two-bit"],"qs":[0.1],"ws":[0.2],"procs":[2],"refs_per_proc":50}`
	if err := os.WriteFile(plan, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	badOut := filepath.Join(dir, "bad.json")

	for _, tc := range []struct {
		name string
		args []string
		want string // all of stderr, without its newline
	}{
		{"no plan", nil,
			"coherencetrace: no -plan given (the same plan file the campaign ran with)"},
		{"bad format", []string{"-plan", plan, "-format", "yaml", "-o", badOut},
			`coherencetrace: unknown -format "yaml" (want chrome, spans, or summary)`},
		{"run out of range", []string{"-plan", plan, "-run", "1"},
			`coherencetrace: sweep: run 1 outside plan "p" of 1 runs`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 1 {
			t.Errorf("%s: exit %d, want 1", tc.name, code)
		}
		if got := stderr.String(); got != tc.want+"\n" {
			t.Errorf("%s:\n got stderr %q\nwant %q", tc.name, got, tc.want+"\n")
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote %d bytes to stdout", tc.name, stdout.Len())
		}
	}
	if _, err := os.Stat(badOut); !os.IsNotExist(err) {
		t.Errorf("a bad -format created or touched %s (stat: %v)", badOut, err)
	}

	var first, stderr bytes.Buffer
	if code := run([]string{"-plan", plan, "-format", "chrome"}, &first, &stderr); code != 0 {
		t.Fatalf("chrome export to stdout: exit %d: %s", code, stderr.String())
	}
	out := filepath.Join(dir, "second.json")
	if code := run([]string{"-plan", plan, "-format", "chrome", "-o", out}, new(bytes.Buffer), &stderr); code != 0 {
		t.Fatalf("chrome export to -o: exit %d: %s", code, stderr.String())
	}
	second, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if first.Len() == 0 || !bytes.Equal(first.Bytes(), second) {
		t.Errorf("two chrome exports of one run differ: %d and %d bytes", first.Len(), len(second))
	}
}

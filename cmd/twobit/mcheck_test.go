package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMcheck drives mcheck through each of its exits: a command line it
// cannot use is 2, a trace it cannot read is 1, each with exactly one
// "twobit mcheck: " line on stderr; a clean closure and a replayed trace
// are 0; a violation is 1, reported on stdout and in one stderr line —
// and its trace, written with -trace, replays.
func TestMcheck(t *testing.T) {
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "corrupt.trace")
	if err := os.WriteFile(corrupt, []byte("mcheck-trace v0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "absent.trace")
	ce := filepath.Join(dir, "ce.trace")

	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string // contained in stdout
		stderr string // all of stderr, without its newline; "" for none
	}{
		{"unknown protocol", []string{"-protocol", "mesi"}, 2, "",
			`twobit mcheck: system: unknown protocol "mesi" (want ` + checkable + `)`},
		{"bus protocol", []string{"-protocol", "write-once"}, 2, "",
			"twobit mcheck: system: write-once transacts on the snooping bus, not by messages a replay can deliver"},
		{"hooks off two-bit", []string{"-protocol", "classical", "-bug", "write-miss-invalidate"}, 2, "",
			"twobit mcheck: system: core hooks apply to the two-bit protocol only"},
		{"unknown bug", []string{"-bug", "frobnicate"}, 2, "",
			`twobit mcheck: unknown -bug "frobnicate"`},
		{"missing trace", []string{"-replay", missing}, 1, "",
			"twobit mcheck: open " + missing + ": no such file or directory"},
		{"corrupt trace", []string{"-replay", corrupt}, 1, "",
			`twobit mcheck: not a "mcheck-trace v1" file`},
		{"clean closure", []string{"-protocol", "classical", "-blocks", "1", "-refs", "1"}, 0,
			"no violations", ""},
		{"violation", []string{"-blocks", "1", "-bug", "write-miss-invalidate", "-trace", ce}, 1,
			"VIOLATION stale-read: block 0 clean copy in cache 0 holds v0, current is v1",
			"twobit mcheck: VIOLATION stale-read: block 0 clean copy in cache 0 holds v0, current is v1 (no invalidation in flight)"},
		{"replay the violation", []string{"-replay", ce}, 0, "replay ok", ""},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"mcheck"}, tc.args...), &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.name, code, tc.code, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.stdout) {
			t.Errorf("%s: stdout %q does not contain %q", tc.name, stdout.String(), tc.stdout)
		}
		want := ""
		if tc.stderr != "" {
			want = tc.stderr + "\n"
		}
		if got := stderr.String(); got != want {
			t.Errorf("%s:\n got stderr %q\nwant %q", tc.name, got, want)
		}
	}
}

// TestHelpListsEveryProtocol: -protocol's help names all six protocols
// the checker admits.
func TestHelpListsEveryProtocol(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"mcheck", "-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	for _, p := range []string{"two-bit", "full-map", "full-map+E", "classical", "duplication", "software"} {
		if !strings.Contains(stderr.String(), p) {
			t.Errorf("usage does not name %s:\n%s", p, stderr.String())
		}
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestErrorsCarryOnePrefix drives the CLI with bad plans, a bad store and
// bad flags: each must exit non-zero with exactly one line on stderr,
// "sweep: " once and then the fault — whether the error was minted by
// internal/sweep (which prefixes its own), by main, or by the OS.
func TestErrorsCarryOnePrefix(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const ok = `{"name":"p","protocols":["two-bit"],"qs":[0.1],"ws":[0.2],"procs":[2],"refs_per_proc":50`
	good := write("good.json", ok+`}`)
	unknown := write("unknown.json", ok+`,"frobnicate":1}`)
	empty := write("empty.json", `{"name":"p","protocols":[],"qs":[0.1],"ws":[0.2],"procs":[2]}`)
	missing := filepath.Join(dir, "absent.json")
	gap := write("gap.jsonl", "{\"run_id\":0}\n{\"run_id\":2}\n")

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown field", []string{"-plan", unknown, "-quiet"},
			`sweep: parsing plan: json: unknown field "frobnicate"`},
		{"empty axis", []string{"-plan", empty, "-quiet"},
			`sweep: plan "p" has an empty protocols axis`},
		{"missing file", []string{"-plan", missing, "-quiet"},
			"sweep: open " + missing + ": no such file or directory"},
		{"corrupt store", []string{"-plan", good, "-out", gap, "-resume", "-quiet"},
			"sweep: store " + gap + " is corrupt: line 1 holds run 2"},
		{"no plan", nil,
			"sweep: no -plan given (try -example for the format)"},
		{"bad shard", []string{"-plan", good, "-shard", "3/2", "-quiet"},
			`sweep: bad -shard "3/2": slice must be in [0,2)`},
		{"bad format", []string{"-plan", good, "-out", filepath.Join(dir, "ok.jsonl"), "-format", "yaml", "-quiet"},
			`sweep: unknown -format "yaml" (want table, csv or json)`},
	} {
		var stderr bytes.Buffer
		if code := cli(tc.args, &stderr); code == 0 {
			t.Errorf("%s: exit 0, want non-zero", tc.name)
		}
		if got := stderr.String(); got != tc.want+"\n" {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want+"\n")
		}
	}
}

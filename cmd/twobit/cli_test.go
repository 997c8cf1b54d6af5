package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twobit/internal/sweep"
)

// TestErrorsCarryOnePrefix holds every subcommand to one convention: a
// flag it does not know exits 2 with exactly one "twobit <sub>: " line on
// stderr and nothing on stdout, and -h exits 0. The binary with no
// subcommand, or one it does not know, prints its usage and exits 2;
// `twobit help` exits 0. Then sweep meets bad plans, a bad store and bad
// flags: each fails with one line, "twobit sweep: " once and then the
// fault, whether internal/sweep minted it (with its own "sweep: "
// prefix), the subcommand, or the OS.
func TestErrorsCarryOnePrefix(t *testing.T) {
	for _, c := range subcommands {
		var stdout, stderr bytes.Buffer
		if code := run([]string{c.name, "-nosuchflag"}, &stdout, &stderr); code != 2 {
			t.Errorf("%s -nosuchflag: exit %d, want 2", c.name, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s -nosuchflag: wrote %q to stdout", c.name, stdout.String())
		}
		if got := stderr.String(); strings.Count(got, "\n") != 1 || !strings.HasPrefix(got, "twobit "+c.name+": ") {
			t.Errorf("%s -nosuchflag: stderr %q, want one %q line", c.name, got, "twobit "+c.name+": ")
		}
		if code := run([]string{c.name, "-h"}, new(bytes.Buffer), new(bytes.Buffer)); code != 0 {
			t.Errorf("%s -h: exit %d, want 0", c.name, code)
		}
	}
	for _, args := range [][]string{nil, {"frobnicate"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "usage: twobit") {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want 2 and the usage on stderr", args, code, stdout.String(), stderr.String())
		}
	}
	var help bytes.Buffer
	if code := run([]string{"help"}, &help, new(bytes.Buffer)); code != 0 {
		t.Errorf("help: exit %d, want 0", code)
	}
	for _, c := range subcommands {
		if !strings.Contains(help.String(), "  "+c.name+" ") {
			t.Errorf("help does not list %s:\n%s", c.name, help.String())
		}
	}

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
	negTopK := write("negtopk.json", ok+`,"obs_topk":-1}`)
	hugeTopK := write("hugetopk.json", ok+`,"obs_topk":100000}`)
	missing := filepath.Join(dir, "absent.json")
	gap := write("gap.jsonl", "{\"run_id\":0}\n{\"run_id\":2}\n")
	shards := filepath.Join(dir, "shards")
	if err := os.MkdirAll(shards, 0o755); err != nil {
		t.Fatal(err)
	}
	write("shards/s1of2.jsonl", "")

	for _, tc := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{"unknown field", []string{"-plan", unknown, "-quiet"}, 1,
			`twobit sweep: parsing plan: json: unknown field "frobnicate"`},
		{"empty axis", []string{"-plan", empty, "-quiet"}, 1,
			`twobit sweep: plan "p" has an empty protocols axis`},
		{"negative obs_topk", []string{"-plan", negTopK, "-quiet"}, 1,
			`twobit sweep: plan "p": obs_topk must be in 0..4096 (0 leaves contention profiling off), got -1`},
		{"huge obs_topk", []string{"-plan", hugeTopK, "-quiet"}, 1,
			`twobit sweep: plan "p": obs_topk must be in 0..4096 (0 leaves contention profiling off), got 100000`},
		{"missing file", []string{"-plan", missing, "-quiet"}, 1,
			"twobit sweep: open " + missing + ": no such file or directory"},
		{"corrupt store", []string{"-plan", good, "-out", gap, "-resume", "-quiet"}, 1,
			"twobit sweep: store " + gap + " is corrupt: line 1 holds run 2"},
		{"no plan", nil, 2,
			"twobit sweep: no -plan given (twobit sweep -example prints the format)"},
		{"bad shard", []string{"-plan", good, "-shard", "3/2", "-quiet"}, 2,
			`twobit sweep: bad -shard "3/2": slice must be in [0,2)`},
		{"merge missing slice", []string{"-plan", good, "-merge", "-shards", shards, "-out", filepath.Join(dir, "m.jsonl"), "-quiet"}, 1,
			"twobit sweep: shard dir " + shards + " is missing slice 0/2: open " + filepath.Join(shards, "s0of2.jsonl") + ": no such file or directory"},
		{"slice of another width", []string{"-plan", good, "-shard", "0/3", "-shards", shards, "-quiet"}, 1,
			"twobit sweep: shard dir " + shards + " holds 2-way slices; this campaign shards 3 ways"},
		{"bad format", []string{"-plan", good, "-out", filepath.Join(dir, "ok.jsonl"), "-format", "yaml", "-quiet"}, 2,
			`twobit sweep: unknown -format "yaml" (want table, csv or json)`},
		{"bad metric", []string{"-plan", good, "-metric", "speed", "-quiet"}, 2,
			`twobit sweep: unknown metric "speed" (have ` + strings.Join(sweep.MetricNames(), ", ") + ")"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"sweep"}, tc.args...), &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d", tc.name, code, tc.code)
		}
		if got := stderr.String(); got != tc.want+"\n" {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want+"\n")
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote %q to stdout", tc.name, stdout.String())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "ok.jsonl")); !os.IsNotExist(err) {
		t.Errorf("a bad -format ran the campaign into ok.jsonl (stat: %v)", err)
	}
}

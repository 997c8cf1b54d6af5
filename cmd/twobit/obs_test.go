package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestObsRun drives the -run view through its error exits — each one
// line on stderr, nothing on stdout, and a bad -format caught before -o
// creates anything — then exports one run twice, to stdout and to a
// file, and requires the same bytes both times.
func TestObsRun(t *testing.T) {
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
		code int
		want string // all of stderr, without its newline
	}{
		{"no plan", []string{"-run", "0"}, 2,
			"twobit obs: no -plan given (twobit sweep -example prints the format)"},
		{"bad format", []string{"-plan", plan, "-run", "0", "-format", "yaml", "-o", badOut}, 2,
			`twobit obs: unknown -format "yaml" (want text, csv or json; text, chrome or spans with -run)`},
		{"campaign format", []string{"-plan", plan, "-run", "0", "-format", "csv", "-o", badOut}, 2,
			"twobit obs: -format csv renders a campaign; -run replays one run as text, chrome or spans"},
		{"campaign flag", []string{"-plan", plan, "-run", "0", "-store", badOut}, 2,
			"twobit obs: -run does not read -store"},
		{"run out of range", []string{"-plan", plan, "-run", "1"}, 1,
			`twobit obs: sweep: run 1 outside plan "p" of 1 runs`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"obs"}, tc.args...), &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d", tc.name, code, tc.code)
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
	if code := run([]string{"obs", "-plan", plan, "-run", "0", "-format", "chrome"}, &first, &stderr); code != 0 {
		t.Fatalf("chrome export to stdout: exit %d: %s", code, stderr.String())
	}
	out := filepath.Join(dir, "second.json")
	if code := run([]string{"obs", "-plan", plan, "-run", "0", "-format", "chrome", "-o", out}, new(bytes.Buffer), &stderr); code != 0 {
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

// TestObsCampaign drives the campaign view (no -run) through bad input —
// a format or flag only -run reads, a missing, short or foreign store, a
// campaign run without observability — each one line on stderr and
// nothing on stdout. Then the text view of a windowed campaign and of
// one of its runs print one renderer's sections.
func TestObsCampaign(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	const axes = `"protocols":["two-bit"],"qs":[0.1],"ws":[0.3],"procs":[2],"replicates":2,"refs_per_proc":60`
	for name, body := range map[string]string{
		"win.json":   `{"name":"win",` + axes + `,"obs_window":16,"obs_topk":8}`,
		"plain.json": `{"name":"plain",` + axes + `}`,
	} {
		if err := os.WriteFile(path(name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, args := range [][]string{
		{"-plan", path("win.json"), "-out", path("win.jsonl")},
		{"-plan", path("plain.json"), "-out", path("plain.jsonl")},
	} {
		var stderr bytes.Buffer
		if code := run(append([]string{"sweep", "-quiet"}, args...), new(bytes.Buffer), &stderr); code != 0 {
			t.Fatalf("sweep %q: exit %d: %s", args, code, stderr.String())
		}
	}
	win, err := os.ReadFile(path("win.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := bytes.Cut(win, []byte("\n"))
	if err := os.WriteFile(path("short.jsonl"), append(first, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // all of stderr, without its newline
	}{
		{"no plan", nil, 2,
			"twobit obs: no -plan given (twobit sweep -example prints the format)"},
		{"unknown format", []string{"-plan", path("win.json"), "-format", "yaml"}, 2,
			`twobit obs: unknown -format "yaml" (want text, csv or json; text, chrome or spans with -run)`},
		{"run-only format", []string{"-plan", path("win.json"), "-format", "chrome"}, 2,
			"twobit obs: -format chrome needs -run"},
		{"run-only flag", []string{"-plan", path("win.json"), "-ring", "64"}, 2,
			"twobit obs: obs without -run does not read -ring"},
		{"missing plan", []string{"-plan", path("absent.json")}, 1,
			"twobit obs: sweep: open " + path("absent.json") + ": no such file or directory"},
		{"missing store", []string{"-plan", path("win.json"), "-store", path("absent.jsonl")}, 1,
			"twobit obs: sweep: opening store: open " + path("absent.jsonl") + ": no such file or directory"},
		{"short store", []string{"-plan", path("win.json"), "-store", path("short.jsonl")}, 1,
			"twobit obs: sweep: grouping 1 records against a plan of 2 runs (campaign incomplete?)"},
		{"no snapshots", []string{"-plan", path("plain.json"), "-store", path("plain.jsonl")}, 1,
			"twobit obs: sweep: run 0 carries no obs snapshot (was the campaign executed with observability on?)"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"obs"}, tc.args...), &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d", tc.name, code, tc.code)
		}
		if got := stderr.String(); got != tc.want+"\n" {
			t.Errorf("%s:\n got stderr %q\nwant %q", tc.name, got, tc.want+"\n")
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote %d bytes to stdout", tc.name, stdout.Len())
		}
	}

	for _, args := range [][]string{
		{"-plan", path("win.json"), "-store", path("win.jsonl")},
		{"-plan", path("win.json"), "-run", "1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"obs"}, args...), &stdout, &stderr); code != 0 {
			t.Fatalf("obs %q: exit %d: %s", args, code, stderr.String())
		}
		for _, section := range []string{"counters (", "histograms (", "window series: ", "hot blocks (top "} {
			if !strings.Contains(stdout.String(), section) {
				t.Errorf("obs %q prints no %q section:\n%s", args, section, stdout.String())
			}
		}
	}
}

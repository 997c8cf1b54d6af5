package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"twobit"
)

// TestRunErrors drives the command through its error exits: a name it
// does not know, or a flag the chosen mode would ignore, is a bad flag
// (exit 2), a trace it cannot run is an
// error (exit 1), each one line on stderr and nothing on stdout. A trace
// with more streams than a machine can have is refused by name, not
// clamped to its first 64 streams.
func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	wide := filepath.Join(dir, "wide.bin")
	var buf bytes.Buffer
	if err := twobit.RecordTrace(gen(65, 0.05, 0.2, 1), 65, 10).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wide, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.bin")

	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // all of stderr, without its newline
	}{
		{"protocol", []string{"-protocol", "mesi"}, 2, `coherencesim: unknown protocol "mesi"`},
		{"network", []string{"-net", "ring"}, 2, `coherencesim: unknown network "ring"`},
		{"workload", []string{"-workload", "tpcc"}, 2, `coherencesim: unknown workload "tpcc"`},
		{"sweep", []string{"-sweep", "w"}, 2, `coherencesim: unknown sweep "w" (want sharing, n or tb)`},
		{"compare ignores", []string{"-compare", "-workload", "locks"}, 2, `coherencesim: -compare does not read -workload`},
		{"sweep ignores", []string{"-sweep", "n", "-net", "bus", "-json"}, 2, `coherencesim: -sweep does not read -json`},
		{"missing trace", []string{"-trace", missing}, 1,
			"coherencesim: open " + missing + ": no such file or directory"},
		{"65 streams", []string{"-trace", wide, "-refs", "10"}, 1,
			"coherencesim: system: Procs must be ≤ 64 (directory word width), got 65"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d", tc.name, code, tc.code)
		}
		if got := stderr.String(); got != tc.want+"\n" {
			t.Errorf("%s:\n got stderr %q\nwant %q", tc.name, got, tc.want+"\n")
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote %d bytes to stdout", tc.name, stdout.Len())
		}
	}
}

// TestRecordThenTrace: a run from a -record capture prints, byte for
// byte, the -json of the live run it captured.
func TestRecordThenTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "rec.bin")
	workload := []string{"-procs", "4", "-refs", "300", "-workload", "locks", "-seed", "3"}
	var live, recorded, replayed, stderr bytes.Buffer
	if code := run(append(workload, "-json"), &live, &stderr); code != 0 {
		t.Fatalf("live run: exit %d: %s", code, stderr.String())
	}
	if code := run(append(workload, "-record", trace), &recorded, &stderr); code != 0 {
		t.Fatalf("-record: exit %d: %s", code, stderr.String())
	}
	if want := "recorded 4 procs × 300 refs to " + trace + "\n"; recorded.String() != want {
		t.Errorf("-record printed %q, want %q", recorded.String(), want)
	}
	if code := run([]string{"-trace", trace, "-refs", "300", "-seed", "3", "-json"}, &replayed, &stderr); code != 0 {
		t.Fatalf("-trace: exit %d: %s", code, stderr.String())
	}
	if live.Len() == 0 || !bytes.Equal(live.Bytes(), replayed.Bytes()) {
		t.Errorf("-trace of the capture differs from the live run:\nlive  %s\ntrace %s", live.String(), replayed.String())
	}
}

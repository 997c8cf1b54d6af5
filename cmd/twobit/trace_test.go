package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestInspectArgs: inspect takes its file before or after the flags, and
// -top must lie in 0..MaxTopK — a negative value or one past the cap is
// a named error, never a sketch sized from it; an unknown flag is a
// usage error, which exits 2.
func TestInspectArgs(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		top     int
		json    bool
		wantErr string
	}{
		{[]string{"t.mtrc2"}, 8, false, ""},
		{[]string{"t.mtrc2", "-top", "4", "-json"}, 4, true, ""},
		{[]string{"-top", "0", "t.mtrc2"}, 0, false, ""},
		{[]string{"-top", "4096", "t.mtrc2"}, 4096, false, ""},
		{[]string{"t.mtrc2", "-top", "-1"}, 0, false, "inspect -top must be in 0..4096, got -1"},
		{[]string{"-top", "4097", "t.mtrc2"}, 0, false, "inspect -top must be in 0..4096, got 4097"},
		{[]string{"-top", "3"}, 0, false, "inspect needs exactly one trace file"},
	} {
		path, top, jsonOut, err := inspectArgs(tc.args, new(bytes.Buffer))
		if tc.wantErr != "" {
			if got := fmt.Sprint(err); got != tc.wantErr {
				t.Errorf("%q: error %v, want %q", tc.args, err, tc.wantErr)
			}
			continue
		}
		if err != nil || path != "t.mtrc2" || top != tc.top || jsonOut != tc.json {
			t.Errorf("%q: (%q, %d, %t, %v), want (t.mtrc2, %d, %t, nil)", tc.args, path, top, jsonOut, err, tc.top, tc.json)
		}
	}
	if _, _, _, err := inspectArgs([]string{"-frobnicate", "t.mtrc2"}, new(bytes.Buffer)); !errors.As(err, new(usageError)) {
		t.Errorf("unknown flag: error %v, want a usage error", err)
	}
}

// TestTrace drives trace through its exits: a bad command line exits 2
// and a trace it cannot read exits 1, each with one "twobit trace: "
// line naming the fault. Nothing reaches stdout on an error. The retired
// segment cache's -cache-dir and MTRC1's -format varint are unknown now.
func TestTrace(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.mtrc2")
	if code := run([]string{"trace", "synth", "-scenario", "kv-serving", "-procs", "2", "-refs", "300", "-chunk", "64", "-o", good, "-quiet"},
		new(bytes.Buffer), new(bytes.Buffer)); code != 0 {
		t.Fatalf("synth: exit %d", code)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.mtrc2")
	if err := os.WriteFile(truncated, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	emptyStream := filepath.Join(dir, "empty.trace")
	if err := os.WriteFile(emptyStream, []byte("# memtrace text v1 procs=2\n0 R 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.mtrc2")

	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // all of stderr, without its newline
	}{
		{"unknown command", []string{"frobnicate"}, 2,
			`twobit trace: unknown command "frobnicate" (want list, synth, inspect or convert)`},
		{"synth without -o", []string{"synth", "-scenario", "kv-serving"}, 2,
			"twobit trace: synth needs -o <file>"},
		{"synth -cache-dir", []string{"synth", "-scenario", "kv-serving", "-cache-dir", dir}, 2,
			"twobit trace: flag provided but not defined: -cache-dir"},
		{"convert -format varint", []string{"convert", good, filepath.Join(dir, "out"), "-format", "varint"}, 2,
			`twobit trace: unknown format "varint" (want text or chunked)`},
		{"convert onto its input", []string{"convert", good, good}, 2,
			"twobit trace: convert would overwrite its input " + good},
		{"dash is a file name", []string{"convert", "-", filepath.Join(dir, "out")}, 1,
			"twobit trace: open -: no such file or directory"},
		{"missing file", []string{"inspect", missing}, 1,
			"twobit trace: open " + missing + ": no such file or directory"},
		{"truncated MTRC2", []string{"inspect", truncated}, 1,
			fmt.Sprintf("twobit trace: memtrace: bad trailer magic %q", data[len(data)/2-6:len(data)/2])},
		{"retired format", []string{"inspect", filepath.Join("testdata", "retired.mtrc1")}, 1,
			"twobit trace: memtrace: MTRC1 is a retired trace format; re-record the trace as MTRC2"},
		{"empty stream", []string{"convert", emptyStream, filepath.Join(dir, "out")}, 1,
			"twobit trace: memtrace: processor 1 has no references (empty stream)"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"trace"}, tc.args...), &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d", tc.name, code, tc.code)
		}
		if got := stderr.String(); got != tc.want+"\n" {
			t.Errorf("%s:\n got stderr %q\nwant %q", tc.name, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote %q to stdout", tc.name, stdout.String())
		}
	}
}

// TestConvertRoundTrip: a chunked trace converted to text, back to
// chunked at another chunk capacity, and to text again writes the same
// text both times.
func TestConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	for _, args := range [][]string{
		{"synth", "-scenario", "false-sharing", "-procs", "3", "-refs", "500", "-chunk", "64", "-o", path("a.mtrc2"), "-quiet"},
		{"convert", path("a.mtrc2"), path("a.txt"), "-format", "text"},
		{"convert", "-chunk", "100", path("a.txt"), path("b.mtrc2")},
		{"convert", path("b.mtrc2"), path("b.txt"), "-format", "text"},
	} {
		var stderr bytes.Buffer
		if code := run(append([]string{"trace"}, args...), new(bytes.Buffer), &stderr); code != 0 {
			t.Fatalf("%q: exit %d: %s", args, code, stderr.String())
		}
	}
	a, errA := os.ReadFile(path("a.txt"))
	b, errB := os.ReadFile(path("b.txt"))
	if errA != nil || errB != nil || len(a) == 0 || !bytes.Equal(a, b) {
		t.Errorf("text differs across conversion (%d vs %d bytes; %v, %v)", len(a), len(b), errA, errB)
	}
}

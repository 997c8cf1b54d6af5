package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"twobit"
)

// hostileIndex hand-encodes a one-processor MTRC2 file whose index
// claims a 1-block space while its one reference names block 5: a file
// no trace writer writes.
func hostileIndex() []byte {
	const tagChunk, tagIndex = 0x01, 0x02
	b := append([]byte("MTRC2\n"), 1, 1, 1)     // magic, version 1, 1 processor, 1 reference per chunk
	payload := binary.AppendUvarint(nil, 10<<2) // block 5, zig-zag encoded, a read
	b = append(b, tagChunk, 0, 1, byte(len(payload)))
	off := len(b)
	b = append(b, payload...)
	idxOff := len(b)
	b = append(b, tagIndex, 1, 1, 0, 1, byte(len(payload)), byte(off)) // blocks=1, one entry
	b = binary.LittleEndian.AppendUint64(b, uint64(idxOff))
	return append(b, "MTRCIX"...)
}

// TestSimErrors drives sim through its error exits: a name it does not
// know, or a flag the chosen mode would ignore, is a bad flag (exit 2), a
// trace it cannot run is an error (exit 1), each one line on stderr and
// nothing on stdout. A trace with more streams than a machine can have
// is refused by name, not clamped to its first 64 streams. So are a file
// in the retired MTRC1 format, an MTRC2 file whose references leave the
// block space its index claims, and the hostile text traces that once
// panicked in replay or in the protocol, or sized a machine past the
// memory: each is refused before any machine exists.
func TestSimErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var buf bytes.Buffer
	if err := twobit.StreamTrace(&buf, gen(65, 0.05, 0.2, 1), 65, 10); err != nil {
		t.Fatal(err)
	}
	wide := write("wide.mtrc2", buf.String())
	missing := filepath.Join(dir, "missing.mtrc2")
	retired := filepath.Join("testdata", "retired.mtrc1")
	emptyStream := write("empty.trace", "# memtrace text v1 procs=2\n0 R 1\n")
	maxBlock := write("max.trace", "# memtrace text v1 procs=1\n0 R 18446744073709551615\n")
	hugeBlock := write("huge.trace", "# memtrace text v1 procs=1\n0 R 4000000000\n")
	hostile := write("hostile.mtrc2", string(hostileIndex()))

	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // all of stderr, without its newline
	}{
		{"protocol", []string{"-protocol", "mesi"}, 2, `twobit sim: unknown protocol "mesi"`},
		{"network", []string{"-net", "ring"}, 2, `twobit sim: unknown network "ring"`},
		{"workload", []string{"-workload", "tpcc"}, 2, `twobit sim: unknown workload "tpcc"`},
		{"compare ignores", []string{"-compare", "-workload", "locks"}, 2, `twobit sim: -compare does not read -workload`},
		{"missing trace", []string{"-trace", missing}, 1,
			"twobit sim: open " + missing + ": no such file or directory"},
		{"65 streams", []string{"-trace", wide, "-refs", "10"}, 1,
			"twobit sim: system: Procs must be ≤ 64 (directory word width), got 65"},
		{"retired format", []string{"-trace", retired}, 1,
			"twobit sim: memtrace: MTRC1 is a retired trace format; re-record the trace as MTRC2"},
		{"empty stream", []string{"-trace", emptyStream}, 1,
			"twobit sim: memtrace: processor 1 has no references (empty stream)"},
		{"block 2^64-1", []string{"-trace", maxBlock}, 1,
			"twobit sim: memtrace: line 2: block 18446744073709551615 outside the 16777216-block space bound"},
		{"block 4e9", []string{"-trace", hugeBlock}, 1,
			"twobit sim: memtrace: line 2: block 4000000000 outside the 16777216-block space bound"},
		{"block past the index", []string{"-trace", hostile}, 1,
			"twobit sim: memtrace: index entry 0: block 5 beyond the index's 1-block space"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"sim"}, tc.args...), &stdout, &stderr); code != tc.code {
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

// TestRecordThenTrace: -record writes MTRC2, the one binary format, and
// a run from the capture prints, byte for byte, the -json of the live run
// it captured.
func TestRecordThenTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "rec.mtrc2")
	workload := []string{"sim", "-procs", "4", "-refs", "300", "-workload", "locks", "-seed", "3"}
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
	// The capture is the MTRC2 encoding of the trace it holds, magic and
	// all, and it opens as a stream.
	var mtrc2 bytes.Buffer
	if err := twobit.RecordTrace(twobit.NewLockContentionWorkload(4, 8, 3), 4, 300).WriteChunked(&mtrc2, 0); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(trace); err != nil || !bytes.Equal(got, mtrc2.Bytes()) {
		t.Errorf("-record wrote %d bytes (%v), not the %d of the trace's MTRC2 encoding", len(got), err, mtrc2.Len())
	}
	if src, err := twobit.OpenTraceFile(trace); err != nil {
		t.Errorf("opening the capture: %v", err)
	} else {
		if _, ok := src.(*twobit.StreamReader); !ok {
			t.Errorf("the capture opened as %T, not as an MTRC2 stream", src)
		}
		twobit.CloseTraceSource(src)
	}
	if code := run([]string{"sim", "-trace", trace, "-refs", "300", "-seed", "3", "-json"}, &replayed, &stderr); code != 0 {
		t.Fatalf("-trace: exit %d: %s", code, stderr.String())
	}
	if live.Len() == 0 || !bytes.Equal(live.Bytes(), replayed.Bytes()) {
		t.Errorf("-trace of the capture differs from the live run:\nlive  %s\ntrace %s", live.String(), replayed.String())
	}
}

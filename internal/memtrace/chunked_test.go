package memtrace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"twobit/internal/addr"
	"twobit/internal/workload"
)

func chunkGen(procs int, seed uint64) workload.Generator {
	return workload.NewSharedPrivate(workload.SharedPrivateConfig{
		Procs: procs, SharedBlocks: 16, Q: 0.2, W: 0.3,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 8, ColdBlocks: 64, Seed: seed,
	})
}

func TestChunkedRoundTrip(t *testing.T) {
	tr := Record(chunkGen(4, 9), 4, 777) // 777 is not a chunkCap multiple: exercises partial chunks
	for _, chunkCap := range []int{1, 7, 64, 4096, 100000} {
		var buf bytes.Buffer
		if err := tr.WriteChunked(&buf, chunkCap); err != nil {
			t.Fatalf("chunkCap=%d: %v", chunkCap, err)
		}
		back, err := ReadChunked(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("chunkCap=%d: %v", chunkCap, err)
		}
		if !reflect.DeepEqual(tr.perProc, back.perProc) {
			t.Fatalf("chunkCap=%d: round trip changed trace", chunkCap)
		}
	}
}

func TestChunkedRejectsOversizeCap(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewChunkWriter(&buf, 1, MaxChunkCap+1); err == nil {
		t.Fatal("oversize chunk capacity accepted")
	}
	if _, err := NewChunkWriter(&buf, 0, 16); err == nil {
		t.Fatal("zero procs accepted")
	}
}

func TestChunkWriterAppendErrors(t *testing.T) {
	var buf bytes.Buffer
	cw, err := NewChunkWriter(&buf, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Append(2, addr.Ref{Block: 1}); err == nil {
		t.Error("out-of-range proc accepted")
	}
	if err := cw.Append(-1, addr.Ref{Block: 1}); err == nil {
		t.Error("negative proc accepted")
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cw.Append(0, addr.Ref{Block: 1}); err == nil {
		t.Error("Append after Close accepted")
	}
}

func TestChunkedCompactness(t *testing.T) {
	// Delta+zigzag over a skewed stream must beat a flat encoding of one
	// block varint and one flags byte per reference.
	tr := Record(chunkGen(4, 4), 4, 2000)
	var chunked bytes.Buffer
	if err := tr.WriteChunked(&chunked, DefaultChunkCap); err != nil {
		t.Fatal(err)
	}
	flat := 0
	for _, stream := range tr.perProc {
		for _, r := range stream {
			flat += len(binary.AppendUvarint(nil, uint64(r.Block))) + 1
		}
	}
	if chunked.Len() >= flat {
		t.Fatalf("chunked (%dB) not smaller than flat varint (%dB)", chunked.Len(), flat)
	}
}

func TestScanChunkedStreams(t *testing.T) {
	tr := Record(chunkGen(3, 2), 3, 100)
	var buf bytes.Buffer
	if err := tr.WriteChunked(&buf, 32); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	procs, err := ScanChunked(bytes.NewReader(buf.Bytes()), func(proc int, refs []addr.Ref) error {
		if len(refs) == 0 || len(refs) > 32 {
			t.Fatalf("chunk of %d refs outside 1..32", len(refs))
		}
		counts[proc] += len(refs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if procs != 3 {
		t.Fatalf("procs = %d", procs)
	}
	for p, n := range counts {
		if n != 100 {
			t.Fatalf("proc %d scanned %d refs, want 100", p, n)
		}
	}
}

func TestChunkedErrors(t *testing.T) {
	tr := Record(chunkGen(2, 5), 2, 50)
	var buf bytes.Buffer
	if err := tr.WriteChunked(&buf, 16); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	for name, data := range map[string][]byte{
		"bad magic":        []byte("BOGUS\n...."),
		"empty":            {},
		"magic only":       []byte(chunkMagic),
		"truncated body":   good[:len(good)/2],
		"truncated middle": append(append([]byte{}, good[:20]...), 0xFF),
	} {
		if _, err := ReadChunked(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// rawTrace hand-encodes a one-processor, one-reference MTRC2 file whose
// index claims blocks and whose one chunk holds block: a file no
// ChunkWriter would write.
func rawTrace(blocks, block uint64) []byte {
	b := append([]byte(chunkMagic), chunkVersion, 1, 1)
	payload := binary.AppendUvarint(nil, zigzag(int64(block))<<2)
	b = append(b, tagChunk, 0, 1)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	off := len(b)
	b = append(b, payload...)
	idxOff := len(b)
	b = append(b, tagIndex)
	b = binary.AppendUvarint(b, blocks)
	b = append(b, 1, 0, 1)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = binary.AppendUvarint(b, uint64(off))
	b = binary.LittleEndian.AppendUint64(b, uint64(idxOff))
	return append(b, trailerMagic...)
}

// TestChunkedBlockBound: a block space past maxTraceBlocks is refused
// when the file is opened — by its index for the stream opener, by the
// references themselves for the sequential readers, which size nothing
// from the index — and the writer never writes one. The stream opener
// also refuses a reference past the index's own block count, which
// would otherwise reach a machine sized from the index.
// No machine is built: the bound exists so that none is sized from it.
func TestChunkedBlockBound(t *testing.T) {
	ok := rawTrace(maxTraceBlocks, maxTraceBlocks-1)
	if _, err := OpenStream(bytes.NewReader(ok), int64(len(ok))); err != nil {
		t.Fatalf("a trace at the bound refused: %v", err)
	}
	if _, err := ReadChunked(bytes.NewReader(ok)); err != nil {
		t.Fatalf("a trace at the bound refused: %v", err)
	}
	open := func(data []byte) error {
		_, err := OpenStream(bytes.NewReader(data), int64(len(data)))
		return err
	}
	read := func(data []byte) error {
		_, err := ReadChunked(bytes.NewReader(data))
		return err
	}
	for name, tc := range map[string]struct {
		open func([]byte) error
		data []byte
		want string
	}{
		"index":               {open, rawTrace(maxTraceBlocks+1, 0), "memtrace: block count 16777217 outside the 1..16777216 space bound"},
		"2^40":                {open, rawTrace(1<<40, 1<<40-1), "memtrace: block count 1099511627776 outside the 1..16777216 space bound"},
		"payload":             {read, rawTrace(1, maxTraceBlocks), "memtrace: chunk payload decodes block 16777216 outside the 16777216-block space bound at reference 0"},
		"index below payload": {open, rawTrace(1, 5), "memtrace: index entry 0: block 5 beyond the index's 1-block space"},
	} {
		if err := tc.open(tc.data); fmt.Sprint(err) != tc.want {
			t.Errorf("%s: error %v, want %q", name, err, tc.want)
		}
	}
	cw, err := NewChunkWriter(io.Discard, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Append(0, addr.Ref{Block: maxTraceBlocks}); err == nil {
		t.Error("ChunkWriter appended a block past the bound")
	}
}

func TestStreamReaderMatchesTrace(t *testing.T) {
	const refs = 777
	tr := Record(chunkGen(4, 11), 4, refs)
	for _, chunkCap := range []int{16, 64, 1024} {
		var buf bytes.Buffer
		if err := tr.WriteChunked(&buf, chunkCap); err != nil {
			t.Fatal(err)
		}
		sr, err := OpenStream(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("chunkCap=%d: %v", chunkCap, err)
		}
		if sr.Procs() != 4 {
			t.Fatalf("Procs = %d", sr.Procs())
		}
		mem, stream := tr.Generator(), sr.Generator()
		if mem.Blocks() != stream.Blocks() {
			t.Fatalf("chunkCap=%d: Blocks %d vs %d", chunkCap, mem.Blocks(), stream.Blocks())
		}
		// Replay past the end twice over to exercise per-proc wraparound.
		for i := 0; i < refs*2+13; i++ {
			for p := 0; p < 4; p++ {
				if got, want := stream.Next(p), mem.Next(p); got != want {
					t.Fatalf("chunkCap=%d: diverged at ref %d proc %d: %+v vs %+v", chunkCap, i, p, got, want)
				}
			}
		}
		for p := 0; p < 4; p++ {
			if sr.Len(p) != refs {
				t.Fatalf("Len(%d) = %d, want %d", p, sr.Len(p), refs)
			}
		}
	}
}

func TestStreamReaderUnevenStreams(t *testing.T) {
	// Per-proc wraparound with different stream lengths must match the
	// in-memory replayer exactly.
	tr := NewTrace(3)
	for i := 0; i < 10; i++ {
		tr.Append(0, addr.Ref{Block: addr.Block(i), Write: i%2 == 0})
	}
	for i := 0; i < 3; i++ {
		tr.Append(1, addr.Ref{Block: addr.Block(100 + i), Shared: true})
	}
	tr.Append(2, addr.Ref{Block: 7, Write: true, Shared: true})
	var buf bytes.Buffer
	if err := tr.WriteChunked(&buf, 4); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenStream(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	mem, stream := tr.Generator(), sr.Generator()
	for i := 0; i < 50; i++ {
		for p := 0; p < 3; p++ {
			if got, want := stream.Next(p), mem.Next(p); got != want {
				t.Fatalf("diverged at ref %d proc %d: %+v vs %+v", i, p, got, want)
			}
		}
	}
}

func TestStreamResidencyIsBoundedByChunk(t *testing.T) {
	// The acceptance contract: replaying a large trace through the stream
	// path must hold O(procs · chunk) decoded state, never the file.
	const procs, refs, chunkCap = 4, 50000, 256
	tr := Record(chunkGen(procs, 3), procs, refs)
	var buf bytes.Buffer
	if err := tr.WriteChunked(&buf, chunkCap); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenStream(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	g := sr.Stream()
	for i := 0; i < refs; i++ {
		for p := 0; p < procs; p++ {
			g.Next(p)
		}
	}
	max := g.MaxResidentBytes()
	if max == 0 {
		t.Fatal("residency accounting reported 0 bytes")
	}
	// One decoded chunk costs at most payload + count·refSize; allow every
	// proc a resident chunk plus slack for buffer capacity rounding.
	bound := int64(procs) * int64(chunkCap) * (refSize + 8)
	if max > bound {
		t.Fatalf("resident high-water %dB exceeds per-chunk bound %dB", max, bound)
	}
	if fileSize := int64(buf.Len()); max > fileSize/4 {
		t.Fatalf("resident high-water %dB not small vs file %dB — streaming is materializing", max, fileSize)
	}
}

func TestStreamRejectsEmptyProcStream(t *testing.T) {
	tr := NewTrace(2)
	tr.Append(0, addr.Ref{Block: 1})
	var buf bytes.Buffer
	if err := tr.WriteChunked(&buf, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStream(bytes.NewReader(buf.Bytes()), int64(buf.Len())); err == nil {
		t.Fatal("stream with an empty processor accepted (replay would never terminate)")
	}
}

func TestOpenFileSniffsAllFormats(t *testing.T) {
	tr := Record(chunkGen(2, 8), 2, 60)
	dir := t.TempDir()

	write := func(name string, enc func(*os.File) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	paths := map[string]string{
		"text":    write("t.trace", func(f *os.File) error { return tr.WriteText(f) }),
		"chunked": write("t.mtrc2", func(f *os.File) error { return tr.WriteChunked(f, 16) }),
	}
	for _, name := range []string{"text", "chunked"} {
		src, err := OpenFile(paths[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if src.Procs() != 2 {
			t.Fatalf("%s: Procs = %d", name, src.Procs())
		}
		mem, got := tr.Generator(), src.Generator()
		for i := 0; i < 120; i++ {
			for p := 0; p < 2; p++ {
				if a, b := got.Next(p), mem.Next(p); a != b {
					t.Fatalf("%s: diverged at ref %d proc %d", name, i, p)
				}
			}
		}
		if err := CloseSource(src); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
	}
	if _, err := OpenFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
	// The retired format is named, not parsed as text and refused at line 1.
	mtrc1 := write("t.mtrc", func(f *os.File) error {
		_, err := f.WriteString("MTRC1\x02\x01\x05\x00")
		return err
	})
	if _, err := OpenFile(mtrc1); !errors.Is(err, errRetired) {
		t.Fatalf("MTRC1 file: error %v, want %v", err, errRetired)
	}
}

func TestReadTextHeaderValidation(t *testing.T) {
	for name, src := range map[string]string{
		"zero procs":     "# memtrace text v1 procs=0\n",
		"negative procs": "# memtrace text v1 procs=-3\n0 R 1\n",
		"huge procs":     "# memtrace text v1 procs=99999999\n0 R 1\n",
		"procs not int":  "# memtrace text v1 procs=four\n",
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", name, r)
				}
			}()
			if _, err := ReadText(strings.NewReader(src)); err == nil {
				t.Errorf("%s: accepted", name)
			}
		}()
	}
}

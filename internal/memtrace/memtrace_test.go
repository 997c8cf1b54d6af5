package memtrace

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"twobit/internal/addr"
	"twobit/internal/workload"
)

func sampleTrace() *Trace {
	t := NewTrace(2)
	t.Append(0, addr.Ref{Block: 5, Write: false, Shared: true})
	t.Append(0, addr.Ref{Block: 7, Write: true})
	t.Append(1, addr.Ref{Block: 5, Write: true, Shared: true})
	return t
}

func TestAppendAndLen(t *testing.T) {
	tr := sampleTrace()
	if tr.Procs() != 2 || tr.Len(0) != 2 || tr.Len(1) != 1 {
		t.Fatalf("shape: procs=%d len0=%d len1=%d", tr.Procs(), tr.Len(0), tr.Len(1))
	}
}

func TestReplayerReturnsRecordedRefs(t *testing.T) {
	tr := sampleTrace()
	g := tr.Generator()
	if g.Blocks() != 8 {
		t.Fatalf("Blocks = %d, want 8 (max block + 1)", g.Blocks())
	}
	r1 := g.Next(0)
	r2 := g.Next(0)
	if r1.Block != 5 || r1.Write || !r1.Shared {
		t.Fatalf("first ref = %+v", r1)
	}
	if r2.Block != 7 || !r2.Write {
		t.Fatalf("second ref = %+v", r2)
	}
	// Wrap-around.
	if r3 := g.Next(0); r3 != r1 {
		t.Fatalf("wrapped ref = %+v, want %+v", r3, r1)
	}
}

func TestIndependentReplays(t *testing.T) {
	tr := sampleTrace()
	a, b := tr.Generator(), tr.Generator()
	a.Next(0)
	if got := b.Next(0); got.Block != 5 {
		t.Fatal("replayers share position state")
	}
}

func TestRecordFromGenerator(t *testing.T) {
	gen := workload.NewSharedPrivate(workload.SharedPrivateConfig{
		Procs: 3, SharedBlocks: 8, Q: 0.2, W: 0.3,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 8, ColdBlocks: 16, Seed: 4,
	})
	tr := Record(gen, 3, 100)
	for p := 0; p < 3; p++ {
		if tr.Len(p) != 100 {
			t.Fatalf("proc %d recorded %d refs", p, tr.Len(p))
		}
	}
	// Replay must reproduce a fresh generator draw-for-draw.
	fresh := workload.NewSharedPrivate(workload.SharedPrivateConfig{
		Procs: 3, SharedBlocks: 8, Q: 0.2, W: 0.3,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 8, ColdBlocks: 16, Seed: 4,
	})
	g := tr.Generator()
	for i := 0; i < 100; i++ {
		for p := 0; p < 3; p++ {
			if got, want := g.Next(p), fresh.Next(p); got != want {
				t.Fatalf("replay diverged at ref %d proc %d: %+v vs %+v", i, p, got, want)
			}
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.perProc, back.perProc) {
		t.Fatalf("round trip changed trace:\n%v\n%v", tr.perProc, back.perProc)
	}
}

func TestTextFormatReadable(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"procs=2", "0 R 5 s", "0 W 7", "1 W 5 s"} {
		if !strings.Contains(s, want) {
			t.Errorf("text output missing %q:\n%s", want, s)
		}
	}
}

func TestReadTextHandWritten(t *testing.T) {
	src := `# memtrace text v1 procs=2
# a comment
0 R 3
1 w 3 s

0 W 4
`
	tr, err := ReadText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len(0) != 2 || tr.Len(1) != 1 {
		t.Fatalf("lens = %d %d", tr.Len(0), tr.Len(1))
	}
	if r := tr.perProc[1][0]; !r.Write || !r.Shared || r.Block != 3 {
		t.Fatalf("ref = %+v", r)
	}
}

// textErrors are inputs ReadText must refuse with an error. The last
// three once got past it: an empty stream panicked in replay, a block
// past 2^63 wrapped to a negative int, and a block of four billion sized
// a machine that ran out of memory.
var textErrors = map[string]string{
	"no header":        "0 R 3\n",
	"bad op":           "# procs=1\n0 X 3\n",
	"bad proc":         "# procs=1\n9 R 3\n",
	"bad block":        "# procs=1\n0 R xyz\n",
	"too short":        "# procs=1\n0 R\n",
	"empty file":       "",
	"empty stream":     "# memtrace text v1 procs=2\n0 R 1\n",
	"block past 2^63":  "# memtrace text v1 procs=1\n0 R 18446744073709551615\n",
	"block past bound": "# memtrace text v1 procs=1\n0 R 4000000000\n",
}

func TestReadTextErrors(t *testing.T) {
	for name, src := range textErrors {
		if _, err := ReadText(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	gen := workload.NewSharedPrivate(workload.SharedPrivateConfig{
		Procs: 4, SharedBlocks: 16, Q: 0.3, W: 0.4,
		PrivateHit: 0.8, PrivateWrite: 0.2, HotBlocks: 8, ColdBlocks: 64, Seed: 9,
	})
	tr := Record(gen, 4, 500)
	var buf bytes.Buffer
	if err := tr.WriteChunked(&buf, 64); err != nil {
		t.Fatal(err)
	}
	back, err := ReadChunked(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.perProc, back.perProc) {
		t.Fatal("binary round trip changed trace")
	}
	// The stream writes the same text as the trace it holds, without
	// materializing it.
	sr, err := OpenStream(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := tr.WriteText(&want); err != nil {
		t.Fatal(err)
	}
	if err := sr.WriteText(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("StreamReader.WriteText differs from Trace.WriteText")
	}
}

func TestBinaryCompactness(t *testing.T) {
	gen := workload.NewSharedPrivate(workload.SharedPrivateConfig{
		Procs: 2, SharedBlocks: 8, Q: 0.2, W: 0.3,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 8, ColdBlocks: 16, Seed: 4,
	})
	tr := Record(gen, 2, 1000)
	var text, bin bytes.Buffer
	if err := tr.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChunked(&bin, DefaultChunkCap); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= text.Len() {
		t.Fatalf("binary (%dB) not smaller than text (%dB)", bin.Len(), text.Len())
	}
}

// TestBinaryErrors: both MTRC2 openers refuse a bad magic, a truncated
// header and a truncated body, and name the retired MTRC1 format.
func TestBinaryErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := Record(chunkGen(2, 5), 2, 50).WriteChunked(&buf, 16); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for name, data := range map[string][]byte{
		"bad magic":        []byte("BOGUS\n...."),
		"truncated header": []byte(chunkMagic),
		"truncated body":   good[:len(good)/2],
		"MTRC1":            []byte("MTRC1\x02\x01\x05\x00\x01\x00"),
	} {
		_, rerr := ReadChunked(bytes.NewReader(data))
		_, serr := OpenStream(bytes.NewReader(data), int64(len(data)))
		if rerr == nil || serr == nil {
			t.Errorf("%s: accepted (ReadChunked %v, OpenStream %v)", name, rerr, serr)
		}
		if retired := name == "MTRC1"; errors.Is(rerr, errRetired) != retired || errors.Is(serr, errRetired) != retired {
			t.Errorf("%s: errors %v, %v; the retired-format error only for MTRC1", name, rerr, serr)
		}
	}
}

// TestEmptyStreamPanicsOnReplay pins the contract for a Trace built in
// code; every reader refuses an empty stream before replay.
func TestEmptyStreamPanicsOnReplay(t *testing.T) {
	tr := NewTrace(2)
	tr.Append(0, addr.Ref{Block: 1})
	g := tr.Generator()
	defer func() {
		if recover() == nil {
			t.Fatal("empty stream replay did not panic")
		}
	}()
	g.Next(1)
}

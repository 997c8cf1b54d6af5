package memtrace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzChunkedCodec feeds arbitrary bytes to the chunked decoders: both
// the sequential reader and the random-access stream opener must reject
// corrupt input with an error — never panic, hang, or over-allocate.
// When the input does decode, it must round-trip: re-encoding the
// decoded trace and decoding again must reproduce it, and the
// StreamReader must replay the same references as the in-memory Trace.
func FuzzChunkedCodec(f *testing.F) {
	// Seed with real encodings (several shapes and chunk capacities) and
	// a few deliberately broken prefixes so coverage starts inside the
	// decoder rather than at the magic check.
	seed := func(tr *Trace, chunkCap int) []byte {
		var buf bytes.Buffer
		if err := tr.WriteChunked(&buf, chunkCap); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	tr1 := Record(chunkGen(2, 1), 2, 40)
	tr4 := Record(chunkGen(4, 2), 4, 130)
	f.Add(seed(tr1, 8))
	f.Add(seed(tr1, 1))
	f.Add(seed(tr4, 64))
	f.Add(seed(tr4, 4096))
	good := seed(tr1, 16)
	f.Add(good[:len(good)/2])
	f.Add(good[:len(chunkMagic)+2])
	f.Add([]byte(chunkMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Opening raw bytes must never panic, and OpenStream decodes every
		// chunk it accepts: each processor replays its whole stream, and
		// wraps past its end, without a panic and inside the index's space.
		if sr, err := OpenStream(bytes.NewReader(data), int64(len(data))); err == nil {
			g := sr.Stream()
			for p := 0; p < sr.Procs(); p++ {
				for i := 0; i <= sr.Len(p); i++ {
					if ref := g.Next(p); int(ref.Block) >= g.Blocks() {
						t.Fatalf("proc %d replayed block %d outside the index's %d blocks", p, ref.Block, g.Blocks())
					}
				}
			}
		}

		tr, err := ReadChunked(bytes.NewReader(data))
		if err != nil {
			return // rejected with an error — the only acceptable failure mode
		}
		// Round-trip: decoded → encoded → decoded must be stable.
		var buf bytes.Buffer
		if err := tr.WriteChunked(&buf, 32); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadChunked(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(tr.perProc, back.perProc) {
			t.Fatal("round trip changed trace")
		}
		// Equivalence on the canonical encoding: the StreamReader must
		// replay exactly what the in-memory trace holds.
		empty := false
		for p := 0; p < tr.Procs(); p++ {
			if tr.Len(p) == 0 {
				empty = true
			}
		}
		if empty {
			return // stream path rejects empty per-proc streams by design
		}
		sr, err := OpenStream(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("canonical encoding rejected by OpenStream: %v", err)
		}
		mem, stream := tr.Generator(), sr.Generator()
		for i := 0; i < 64; i++ {
			for p := 0; p < tr.Procs(); p++ {
				if got, want := stream.Next(p), mem.Next(p); got != want {
					t.Fatalf("stream diverged at ref %d proc %d: %+v vs %+v", i, p, got, want)
				}
			}
		}
	})
}

// FuzzReadText feeds arbitrary text to ReadText, the one reader besides
// MTRC2 that users hand the simulator: it must refuse bad input with an
// error — never panic, and never accept a block space past the bound.
// An accepted trace must round-trip through WriteText, and its MTRC2
// encoding must replay through a StreamReader exactly as it replays in
// memory.
func FuzzReadText(f *testing.F) {
	for _, src := range textErrors {
		f.Add(src)
	}
	var buf bytes.Buffer
	if err := Record(chunkGen(3, 7), 3, 40).WriteText(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("# memtrace text v1 procs=2\n0 R 3\n1 w 3 s\n\n0 W 4\n")

	f.Fuzz(func(t *testing.T, src string) {
		tr, err := ReadText(strings.NewReader(src))
		if err != nil {
			return
		}
		mem := tr.Generator()
		if mem.Blocks() > maxTraceBlocks {
			t.Fatalf("accepted a %d-block space, past the bound %d", mem.Blocks(), maxTraceBlocks)
		}
		var text bytes.Buffer
		if err := tr.WriteText(&text); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		back, err := ReadText(&text)
		if err != nil {
			t.Fatalf("re-reading WriteText's output: %v", err)
		}
		if !reflect.DeepEqual(tr.perProc, back.perProc) {
			t.Fatal("text round trip changed trace")
		}
		var bin bytes.Buffer
		if err := tr.WriteChunked(&bin, 8); err != nil {
			t.Fatalf("WriteChunked: %v", err)
		}
		sr, err := OpenStream(bytes.NewReader(bin.Bytes()), int64(bin.Len()))
		if err != nil {
			t.Fatalf("OpenStream of an accepted trace: %v", err)
		}
		stream := sr.Generator()
		if stream.Blocks() != mem.Blocks() {
			t.Fatalf("Blocks: stream %d, memory %d", stream.Blocks(), mem.Blocks())
		}
		for i := 0; i < 2*tr.Len(0)+3; i++ {
			for p := 0; p < tr.Procs(); p++ {
				if got, want := stream.Next(p), mem.Next(p); got != want {
					t.Fatalf("stream diverged at ref %d proc %d: %+v vs %+v", i, p, got, want)
				}
			}
		}
	})
}

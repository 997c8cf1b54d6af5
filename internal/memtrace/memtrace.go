// Package memtrace records and replays memory-reference traces, making
// the simulator trace-driven: a workload can be captured once (from any
// generator, or converted from an external source) and replayed
// bit-identically across configurations — the methodology 1980s coherence
// studies used with real address traces, which the paper's authors did
// not yet have for multiprocessors.
//
// Two encodings are provided: a line-oriented text format
// ("<proc> <R|W> <block> [s]") for hand-written fixtures, and the chunked
// binary format MTRC2 (chunked.go) for captures of any length. OpenFile
// is the one way a trace file is opened: it tells the formats apart.
package memtrace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"twobit/internal/addr"
	"twobit/internal/workload"
)

// Trace holds one reference stream per processor.
type Trace struct {
	perProc [][]addr.Ref
	blocks  int
}

// NewTrace returns an empty trace for procs processors.
func NewTrace(procs int) *Trace {
	if procs < 1 {
		panic("memtrace: need at least one processor")
	}
	return &Trace{perProc: make([][]addr.Ref, procs)}
}

// Procs returns the number of processor streams.
func (t *Trace) Procs() int { return len(t.perProc) }

// Len returns the number of recorded references for proc.
func (t *Trace) Len(proc int) int { return len(t.perProc[proc]) }

// Append adds one reference to proc's stream.
func (t *Trace) Append(proc int, r addr.Ref) {
	t.perProc[proc] = append(t.perProc[proc], r)
	if int(r.Block) >= t.blocks {
		t.blocks = int(r.Block) + 1
	}
}

// Record captures refsPerProc references per processor from gen. The
// package's generators produce independent per-processor streams, so
// pre-drawing preserves exactly what a live run would see.
func Record(gen workload.Generator, procs, refsPerProc int) *Trace {
	t := NewTrace(procs)
	for p := 0; p < procs; p++ {
		for i := 0; i < refsPerProc; i++ {
			t.Append(p, gen.Next(p))
		}
	}
	return t
}

// replayer adapts a Trace to workload.Generator. Exhausted streams wrap
// around, so replaying more references than recorded is well defined.
type replayer struct {
	t   *Trace
	pos []int
}

// Generator returns a replaying generator over the trace. Each call
// returns an independent replay (its own positions).
func (t *Trace) Generator() workload.Generator {
	return &replayer{t: t, pos: make([]int, t.Procs())}
}

// Blocks implements workload.Generator.
func (r *replayer) Blocks() int {
	if r.t.blocks < 1 {
		return 1
	}
	return r.t.blocks
}

// Next implements workload.Generator.
func (r *replayer) Next(proc int) addr.Ref {
	stream := r.t.perProc[proc]
	if len(stream) == 0 {
		panic(fmt.Sprintf("memtrace: processor %d has an empty stream", proc))
	}
	ref := stream[r.pos[proc]%len(stream)]
	r.pos[proc]++
	return ref
}

// Scan visits each processor's stream once, in processor order. The
// slice is the trace's own and valid only during the call.
func (t *Trace) Scan(visit func(proc int, refs []addr.Ref) error) error {
	for p, stream := range t.perProc {
		if len(stream) == 0 {
			continue
		}
		if err := visit(p, stream); err != nil {
			return err
		}
	}
	return nil
}

// WriteChunked encodes the trace in the chunked format.
func (t *Trace) WriteChunked(w io.Writer, chunkCap int) error { return writeChunked(w, t, chunkCap) }

// WriteText encodes the trace in the line format, streams interleaved
// round-robin so the file reads roughly in "machine order".
func (t *Trace) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# memtrace text v1 procs=%d\n", t.Procs())
	maxLen := 0
	for _, s := range t.perProc {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	for i := 0; i < maxLen; i++ {
		for p, s := range t.perProc {
			if i >= len(s) {
				continue
			}
			r := s[i]
			op := "R"
			if r.Write {
				op = "W"
			}
			if r.Shared {
				fmt.Fprintf(bw, "%d %s %d s\n", p, op, uint64(r.Block))
			} else {
				fmt.Fprintf(bw, "%d %s %d\n", p, op, uint64(r.Block))
			}
		}
	}
	return bw.Flush()
}

// ReadText decodes the line format. Like OpenStream it refuses a block at
// or past maxTraceBlocks and a processor stream with no references, so no
// machine is ever sized from, or replays, either.
func ReadText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var t *Trace
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if t == nil {
				if i := strings.Index(line, "procs="); i >= 0 {
					n, err := strconv.Atoi(strings.TrimSpace(line[i+len("procs="):]))
					if err != nil {
						return nil, fmt.Errorf("memtrace: line %d: bad procs header: %w", lineNo, err)
					}
					if n < 1 || n > maxStreamProcs {
						return nil, fmt.Errorf("memtrace: line %d: procs=%d outside 1..%d", lineNo, n, maxStreamProcs)
					}
					t = NewTrace(n)
				}
			}
			continue
		}
		if t == nil {
			return nil, fmt.Errorf("memtrace: line %d: reference before procs header", lineNo)
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("memtrace: line %d: want `proc R|W block [s]`, got %q", lineNo, line)
		}
		proc, err := strconv.Atoi(fields[0])
		if err != nil || proc < 0 || proc >= t.Procs() {
			return nil, fmt.Errorf("memtrace: line %d: bad processor %q", lineNo, fields[0])
		}
		var write bool
		switch fields[1] {
		case "R", "r":
		case "W", "w":
			write = true
		default:
			return nil, fmt.Errorf("memtrace: line %d: bad op %q", lineNo, fields[1])
		}
		block, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("memtrace: line %d: bad block %q", lineNo, fields[2])
		}
		if block >= maxTraceBlocks {
			return nil, fmt.Errorf("memtrace: line %d: block %d outside the %d-block space bound", lineNo, block, maxTraceBlocks)
		}
		shared := len(fields) > 3 && fields[3] == "s"
		t.Append(proc, addr.Ref{Block: addr.Block(block), Write: write, Shared: shared})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("memtrace: reading: %w", err)
	}
	if t == nil {
		return nil, fmt.Errorf("memtrace: empty input (missing header?)")
	}
	for p, stream := range t.perProc {
		if len(stream) == 0 {
			return nil, fmt.Errorf("memtrace: processor %d has no references (empty stream)", p)
		}
	}
	return t, nil
}

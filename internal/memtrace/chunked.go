// Chunked binary trace format ("MTRC2"), the one binary encoding: a
// trace is a sequence of per-processor chunks plus a footer index, so
// writers can stream a synthesis of any length with O(procs · chunk)
// memory and readers can replay per-processor streams with independent
// cursors — the full trace never has to exist in RAM on either side.
//
// Layout (all integers unsigned varints unless noted):
//
//	header:  magic "MTRC2\n" (6 bytes), version, procs, chunkCap
//	chunks:  repeated: tag 0x01, proc, count, payloadLen, payload
//	index:   tag 0x02, blocks, chunkCount,
//	         chunkCount × (proc, count, payloadLen, payloadOffsetDelta)
//	trailer: 8-byte little-endian offset of the index tag, "MTRCIX"
//
// A chunk payload packs count references as single varints:
// zigzag(block − prevBlock) << 2 | writeBit | sharedBit<<1, with
// prevBlock starting at 0 for each chunk, so chunks decode
// independently. Delta+zigzag makes hot-key streams (most references
// near the head of a Zipf popularity curve) encode in 1–2 bytes per
// reference.
//
// The index stores each chunk's payload offset (delta-encoded; offsets
// are strictly increasing), so a StreamReader can walk one processor's
// chunks directly via io.ReaderAt without touching the other
// processors' bytes. The blocks field carries the address-space size so
// replay can size the machine without a scan. Sequential readers
// (ReadChunked, ScanChunked) need only an io.Reader: chunks are
// self-delimiting and the index tag terminates the scan.
//
// Every reader refuses the retired flat-varint format MTRC1 by name, and
// a block at or past maxTraceBlocks, before any machine is sized.
package memtrace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"

	"twobit/internal/addr"
	"twobit/internal/workload"
)

const (
	chunkMagic   = "MTRC2\n"
	trailerMagic = "MTRCIX"
	retiredMagic = "MTRC1" // the flat-varint format MTRC2 replaced
	chunkVersion = 1

	tagChunk = 0x01
	tagIndex = 0x02

	// DefaultChunkCap is the default references-per-chunk capacity: 4096
	// references decode from a few KiB of payload, far below any cache
	// or RAM budget, while keeping per-chunk overhead negligible.
	DefaultChunkCap = 4096

	// MaxChunkCap bounds chunk capacity so a hostile header cannot make
	// a reader allocate an unbounded decode buffer.
	MaxChunkCap = 1 << 20

	// maxStreamProcs bounds a trace's processor count.
	maxStreamProcs = 1 << 16

	// maxTraceBlocks bounds a trace's block space: every reader refuses a
	// block at or past it. A fresh machine holds 16–34 bytes of per-block
	// state (measured at 2^20 blocks, oracle on: 34.4 B for duplication,
	// the largest, 27.4 B for full-map, 18.6 B for two-bit), so a machine
	// at the bound holds at most ≈ 580 MB and fits in 1 GiB.
	maxTraceBlocks = 1 << 24

	// trailerLen is the fixed byte length of the trailer.
	trailerLen = 8 + len(trailerMagic)
)

// errRetired names an MTRC1 file rather than failing it as corrupt MTRC2
// or as text.
var errRetired = errors.New("memtrace: MTRC1 is a retired trace format; re-record the trace as MTRC2")

// checkMagic tells an MTRC2 header from the retired format and from
// anything else.
func checkMagic(magic []byte) error {
	switch {
	case string(magic) == chunkMagic:
		return nil
	case strings.HasPrefix(string(magic), retiredMagic):
		return errRetired
	}
	return fmt.Errorf("memtrace: bad chunked magic %q", magic)
}

// chunkMeta locates one chunk inside the encoded stream.
type chunkMeta struct {
	proc       int
	count      int
	payloadLen int
	payloadOff int64
}

// zigzag encodes a signed delta as an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// countingWriter tracks the byte offset of everything written through
// it, so the ChunkWriter knows each chunk's payload offset without
// requiring a seekable sink.
type countingWriter struct {
	w   *bufio.Writer
	off int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.off += int64(n)
	return n, err
}

// ChunkWriter streams a trace into the chunked format. Append buffers at
// most chunkCap references per processor; Close flushes the remainder
// and writes the index and trailer. The writer's memory is O(procs ·
// chunkCap) regardless of trace length.
type ChunkWriter struct {
	cw       countingWriter
	procs    int
	chunkCap int
	pending  [][]addr.Ref
	index    []chunkMeta
	maxBlock uint64
	anyRef   bool
	scratch  []byte
	closed   bool
	err      error
}

// NewChunkWriter starts a chunked trace of procs processor streams.
// chunkCap ≤ 0 selects DefaultChunkCap.
func NewChunkWriter(w io.Writer, procs, chunkCap int) (*ChunkWriter, error) {
	if procs < 1 || procs > maxStreamProcs {
		return nil, fmt.Errorf("memtrace: chunked trace needs 1..%d processors, got %d", maxStreamProcs, procs)
	}
	if chunkCap <= 0 {
		chunkCap = DefaultChunkCap
	}
	if chunkCap > MaxChunkCap {
		return nil, fmt.Errorf("memtrace: chunk capacity %d exceeds the maximum %d", chunkCap, MaxChunkCap)
	}
	cw := &ChunkWriter{
		cw:       countingWriter{w: bufio.NewWriter(w)},
		procs:    procs,
		chunkCap: chunkCap,
		pending:  make([][]addr.Ref, procs),
		scratch:  make([]byte, 0, chunkCap*(binary.MaxVarintLen64+1)),
	}
	for p := range cw.pending {
		cw.pending[p] = make([]addr.Ref, 0, chunkCap)
	}
	var hdr []byte
	hdr = append(hdr, chunkMagic...)
	hdr = binary.AppendUvarint(hdr, chunkVersion)
	hdr = binary.AppendUvarint(hdr, uint64(procs))
	hdr = binary.AppendUvarint(hdr, uint64(chunkCap))
	if _, err := cw.cw.Write(hdr); err != nil {
		return nil, fmt.Errorf("memtrace: writing chunked header: %w", err)
	}
	return cw, nil
}

// Append adds one reference to proc's stream, flushing a full chunk.
func (cw *ChunkWriter) Append(proc int, r addr.Ref) error {
	if cw.err != nil {
		return cw.err
	}
	if cw.closed {
		return fmt.Errorf("memtrace: Append after Close")
	}
	if proc < 0 || proc >= cw.procs {
		return fmt.Errorf("memtrace: Append to processor %d of %d", proc, cw.procs)
	}
	if uint64(r.Block) >= maxTraceBlocks {
		return fmt.Errorf("memtrace: Append of block %d outside the %d-block space bound", r.Block, maxTraceBlocks)
	}
	if uint64(r.Block) > cw.maxBlock || !cw.anyRef {
		cw.maxBlock = uint64(r.Block)
		cw.anyRef = true
	}
	cw.pending[proc] = append(cw.pending[proc], r)
	if len(cw.pending[proc]) == cw.chunkCap {
		return cw.flush(proc)
	}
	return nil
}

// flush writes proc's pending references as one chunk.
func (cw *ChunkWriter) flush(proc int) error {
	refs := cw.pending[proc]
	if len(refs) == 0 {
		return nil
	}
	payload := cw.scratch[:0]
	prev := int64(0)
	for _, r := range refs {
		var flags uint64
		if r.Write {
			flags |= 1
		}
		if r.Shared {
			flags |= 2
		}
		delta := int64(r.Block) - prev
		prev = int64(r.Block)
		payload = binary.AppendUvarint(payload, zigzag(delta)<<2|flags)
	}
	cw.scratch = payload[:0]

	var hdr []byte
	hdr = append(hdr, tagChunk)
	hdr = binary.AppendUvarint(hdr, uint64(proc))
	hdr = binary.AppendUvarint(hdr, uint64(len(refs)))
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	if _, err := cw.cw.Write(hdr); err != nil {
		cw.err = fmt.Errorf("memtrace: writing chunk header: %w", err)
		return cw.err
	}
	off := cw.cw.off
	if _, err := cw.cw.Write(payload); err != nil {
		cw.err = fmt.Errorf("memtrace: writing chunk payload: %w", err)
		return cw.err
	}
	cw.index = append(cw.index, chunkMeta{proc: proc, count: len(refs), payloadLen: len(payload), payloadOff: off})
	cw.pending[proc] = refs[:0]
	return nil
}

// Close flushes every partial chunk (in processor order) and writes the
// index and trailer.
func (cw *ChunkWriter) Close() error {
	if cw.err != nil {
		return cw.err
	}
	if cw.closed {
		return nil
	}
	cw.closed = true
	for p := 0; p < cw.procs; p++ {
		if err := cw.flush(p); err != nil {
			return err
		}
	}
	blocks := uint64(1)
	if cw.anyRef {
		blocks = cw.maxBlock + 1
	}
	idxOff := cw.cw.off
	var idx []byte
	idx = append(idx, tagIndex)
	idx = binary.AppendUvarint(idx, blocks)
	idx = binary.AppendUvarint(idx, uint64(len(cw.index)))
	prevOff := int64(0)
	for _, m := range cw.index {
		idx = binary.AppendUvarint(idx, uint64(m.proc))
		idx = binary.AppendUvarint(idx, uint64(m.count))
		idx = binary.AppendUvarint(idx, uint64(m.payloadLen))
		idx = binary.AppendUvarint(idx, uint64(m.payloadOff-prevOff))
		prevOff = m.payloadOff
	}
	var trailer [trailerLen]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(idxOff))
	copy(trailer[8:], trailerMagic)
	idx = append(idx, trailer[:]...)
	if _, err := cw.cw.Write(idx); err != nil {
		cw.err = fmt.Errorf("memtrace: writing index: %w", err)
		return cw.err
	}
	if err := cw.cw.w.Flush(); err != nil {
		cw.err = fmt.Errorf("memtrace: flushing chunked trace: %w", err)
		return cw.err
	}
	return nil
}

// writeChunked encodes src in the chunked format, appending references
// in src's Scan order: a Trace processor by processor, a StreamReader
// chunk by chunk in file order, so re-chunking never materializes it.
func writeChunked(w io.Writer, src Source, chunkCap int) error {
	cw, err := NewChunkWriter(w, src.Procs(), chunkCap)
	if err != nil {
		return err
	}
	if err := src.Scan(func(proc int, refs []addr.Ref) error {
		for _, r := range refs {
			if err := cw.Append(proc, r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return cw.Close()
}

// WriteGenerator streams refsPerProc references per processor drawn from
// gen into the chunked format on w, in chunk-sized rounds across
// processors so each round fills one chunk per processor. Each
// processor's stream is an independent function of the generator (as
// Record assumes), so the file replays exactly what Record would hold,
// yet the trace never exists in memory. A non-nil observe sees every
// reference as it is drawn.
func WriteGenerator(w io.Writer, gen workload.Generator, procs, refsPerProc, chunkCap int, observe func(proc int, r addr.Ref)) error {
	if refsPerProc < 1 {
		return fmt.Errorf("memtrace: refsPerProc = %d, need ≥ 1", refsPerProc)
	}
	cw, err := NewChunkWriter(w, procs, chunkCap)
	if err != nil {
		return err
	}
	for done := 0; done < refsPerProc; {
		n := min(cw.chunkCap, refsPerProc-done)
		for p := 0; p < procs; p++ {
			for i := 0; i < n; i++ {
				ref := gen.Next(p)
				if observe != nil {
					observe(p, ref)
				}
				if err := cw.Append(p, ref); err != nil {
					return err
				}
			}
		}
		done += n
	}
	return cw.Close()
}

// decodePayload decodes a chunk payload of count references into dst
// (which is reset and must have capacity ≥ count to stay
// allocation-free).
func decodePayload(payload []byte, count int, dst []addr.Ref) ([]addr.Ref, error) {
	dst = dst[:0]
	prev := int64(0)
	for i := 0; i < count; i++ {
		v, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("memtrace: chunk payload truncated at reference %d of %d", i, count)
		}
		payload = payload[n:]
		prev += unzigzag(v >> 2)
		if uint64(prev) >= maxTraceBlocks {
			return nil, fmt.Errorf("memtrace: chunk payload decodes block %d outside the %d-block space bound at reference %d", prev, maxTraceBlocks, i)
		}
		dst = append(dst, addr.Ref{
			Block:  addr.Block(prev),
			Write:  v&1 != 0,
			Shared: v&2 != 0,
		})
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("memtrace: chunk payload has %d trailing bytes after %d references", len(payload), count)
	}
	return dst, nil
}

// chunkHeader holds one decoded sequential chunk header.
type chunkHeader struct {
	proc       int
	count      int
	payloadLen int
}

// readChunkHeader reads one tagged record header from br. It returns
// io.EOF-wrapped errors for truncation and done=true at the index tag.
func readChunkHeader(br *bufio.Reader, procs, chunkCap int) (h chunkHeader, done bool, err error) {
	tag, err := br.ReadByte()
	if err != nil {
		return h, false, fmt.Errorf("memtrace: reading record tag: %w", err)
	}
	switch tag {
	case tagIndex:
		return h, true, nil
	case tagChunk:
	default:
		return h, false, fmt.Errorf("memtrace: unknown record tag %#x", tag)
	}
	proc, err := binary.ReadUvarint(br)
	if err != nil {
		return h, false, fmt.Errorf("memtrace: reading chunk processor: %w", err)
	}
	if proc >= uint64(procs) {
		return h, false, fmt.Errorf("memtrace: chunk for processor %d of %d", proc, procs)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return h, false, fmt.Errorf("memtrace: reading chunk count: %w", err)
	}
	if count == 0 || count > uint64(chunkCap) {
		return h, false, fmt.Errorf("memtrace: chunk count %d outside 1..%d", count, chunkCap)
	}
	payloadLen, err := binary.ReadUvarint(br)
	if err != nil {
		return h, false, fmt.Errorf("memtrace: reading chunk payload length: %w", err)
	}
	if payloadLen > uint64(chunkCap)*(binary.MaxVarintLen64+1) {
		return h, false, fmt.Errorf("memtrace: chunk payload length %d implausible for %d references", payloadLen, count)
	}
	return chunkHeader{proc: int(proc), count: int(count), payloadLen: int(payloadLen)}, false, nil
}

// readChunkedHeader parses the file header from br.
func readChunkedHeader(br *bufio.Reader) (procs, chunkCap int, err error) {
	magic := make([]byte, len(chunkMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, 0, fmt.Errorf("memtrace: reading chunked magic: %w", err)
	}
	if err := checkMagic(magic); err != nil {
		return 0, 0, err
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, fmt.Errorf("memtrace: reading chunked version: %w", err)
	}
	if version != chunkVersion {
		return 0, 0, fmt.Errorf("memtrace: unsupported chunked version %d", version)
	}
	p, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, fmt.Errorf("memtrace: reading processor count: %w", err)
	}
	if p == 0 || p > maxStreamProcs {
		return 0, 0, fmt.Errorf("memtrace: implausible processor count %d", p)
	}
	cc, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, fmt.Errorf("memtrace: reading chunk capacity: %w", err)
	}
	if cc == 0 || cc > MaxChunkCap {
		return 0, 0, fmt.Errorf("memtrace: chunk capacity %d outside 1..%d", cc, MaxChunkCap)
	}
	return int(p), int(cc), nil
}

// ScanChunked decodes a chunked trace sequentially, calling visit once
// per chunk with the chunk's processor and a reference slice that is
// only valid during the call. It holds one chunk in memory at a time —
// the streaming-inspection entry point. It returns the processor count.
func ScanChunked(r io.Reader, visit func(proc int, refs []addr.Ref) error) (int, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	procs, chunkCap, err := readChunkedHeader(br)
	if err != nil {
		return 0, err
	}
	payload := make([]byte, 0, chunkCap*2)
	refs := make([]addr.Ref, 0, chunkCap)
	for {
		h, done, err := readChunkHeader(br, procs, chunkCap)
		if err != nil {
			return procs, err
		}
		if done {
			return procs, nil
		}
		if cap(payload) < h.payloadLen {
			payload = make([]byte, h.payloadLen)
		}
		payload = payload[:h.payloadLen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return procs, fmt.Errorf("memtrace: reading chunk payload: %w", err)
		}
		refs, err = decodePayload(payload, h.count, refs)
		if err != nil {
			return procs, err
		}
		if err := visit(h.proc, refs); err != nil {
			return procs, err
		}
	}
}

// ReadChunked materializes a chunked trace in memory. Replay should
// prefer StreamReader, which never does this.
func ReadChunked(r io.Reader) (*Trace, error) {
	t := &Trace{}
	procs, err := ScanChunked(r, func(proc int, refs []addr.Ref) error {
		for len(t.perProc) <= proc {
			t.perProc = append(t.perProc, nil)
		}
		for _, ref := range refs {
			t.Append(proc, ref)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.perProc = append(t.perProc, make([][]addr.Ref, procs-len(t.perProc))...)
	return t, nil
}

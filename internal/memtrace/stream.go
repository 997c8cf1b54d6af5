package memtrace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"twobit/internal/addr"
	"twobit/internal/workload"
)

// StreamReader replays a chunked trace without materializing it: it
// parses only the footer index up front, then decodes one chunk per
// processor on demand. The underlying io.ReaderAt is stateless, so any
// number of generators (sweep runs many machines concurrently) can
// share one StreamReader; each StreamGen owns its cursors and decode
// buffers.
type StreamReader struct {
	r        io.ReaderAt
	size     int64
	procs    int
	chunkCap int
	blocks   int
	perProc  [][]chunkMeta // each processor's chunks, in stream order
	closer   io.Closer     // optional (file or mmap backing)
}

// OpenStream parses the header, trailer, and index of a chunked trace
// held in r (size bytes long), and decodes every chunk the index names
// once, refusing a corrupt payload or a block outside the index's block
// count by name. It never holds more than one chunk.
func OpenStream(r io.ReaderAt, size int64) (*StreamReader, error) {
	hdr := make([]byte, len(chunkMagic)+3*binary.MaxVarintLen64)
	if int64(len(hdr)) > size {
		hdr = hdr[:size]
	}
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("memtrace: reading chunked header: %w", err)
	}
	br := bufio.NewReader(bytes.NewReader(hdr))
	procs, chunkCap, err := readChunkedHeader(br)
	if err != nil {
		return nil, err
	}

	if size < int64(trailerLen) {
		return nil, fmt.Errorf("memtrace: chunked trace too short (%d bytes) for trailer", size)
	}
	var trailer [trailerLen]byte
	if _, err := r.ReadAt(trailer[:], size-int64(trailerLen)); err != nil {
		return nil, fmt.Errorf("memtrace: reading trailer: %w", err)
	}
	if string(trailer[8:]) != trailerMagic {
		return nil, fmt.Errorf("memtrace: bad trailer magic %q", trailer[8:])
	}
	idxOff := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if idxOff < int64(len(chunkMagic)) || idxOff >= size-int64(trailerLen) {
		return nil, fmt.Errorf("memtrace: index offset %d outside trace body", idxOff)
	}

	idxLen := size - int64(trailerLen) - idxOff
	idx := make([]byte, idxLen)
	if _, err := r.ReadAt(idx, idxOff); err != nil {
		return nil, fmt.Errorf("memtrace: reading index: %w", err)
	}
	ibr := bufio.NewReader(bytes.NewReader(idx))
	tag, err := ibr.ReadByte()
	if err != nil || tag != tagIndex {
		return nil, fmt.Errorf("memtrace: index offset does not point at an index record (tag %#x)", tag)
	}
	blocks, err := binary.ReadUvarint(ibr)
	if err != nil {
		return nil, fmt.Errorf("memtrace: reading block count: %w", err)
	}
	if blocks == 0 || blocks > maxTraceBlocks {
		return nil, fmt.Errorf("memtrace: block count %d outside the 1..%d space bound", blocks, maxTraceBlocks)
	}
	chunkCount, err := binary.ReadUvarint(ibr)
	if err != nil {
		return nil, fmt.Errorf("memtrace: reading chunk count: %w", err)
	}
	// Each index entry takes ≥ 4 bytes; bound before allocating.
	if chunkCount > uint64(idxLen)/4+1 {
		return nil, fmt.Errorf("memtrace: index claims %d chunks in %d bytes", chunkCount, idxLen)
	}

	sr := &StreamReader{
		r:        r,
		size:     size,
		procs:    procs,
		chunkCap: chunkCap,
		blocks:   int(blocks),
		perProc:  make([][]chunkMeta, procs),
	}
	// Every chunk the index names is decoded here, in file order, and
	// its blocks checked against the index's space — one pass over the
	// file holding one chunk — so that a replay meets only I/O errors.
	var payload []byte
	var refs []addr.Ref
	prevOff := int64(0)
	for i := uint64(0); i < chunkCount; i++ {
		proc, err := binary.ReadUvarint(ibr)
		if err != nil {
			return nil, fmt.Errorf("memtrace: index entry %d: reading processor: %w", i, err)
		}
		if proc >= uint64(procs) {
			return nil, fmt.Errorf("memtrace: index entry %d: processor %d of %d", i, proc, procs)
		}
		count, err := binary.ReadUvarint(ibr)
		if err != nil {
			return nil, fmt.Errorf("memtrace: index entry %d: reading count: %w", i, err)
		}
		if count == 0 || count > uint64(chunkCap) {
			return nil, fmt.Errorf("memtrace: index entry %d: count %d outside 1..%d", i, count, chunkCap)
		}
		payloadLen, err := binary.ReadUvarint(ibr)
		if err != nil {
			return nil, fmt.Errorf("memtrace: index entry %d: reading payload length: %w", i, err)
		}
		if payloadLen < count { // a reference encodes in at least one byte
			return nil, fmt.Errorf("memtrace: index entry %d: %d references in a %d-byte payload", i, count, payloadLen)
		}
		offDelta, err := binary.ReadUvarint(ibr)
		if err != nil {
			return nil, fmt.Errorf("memtrace: index entry %d: reading offset delta: %w", i, err)
		}
		off := prevOff + int64(offDelta)
		prevOff = off
		if off < int64(len(chunkMagic)) || payloadLen > uint64(idxOff) || off+int64(payloadLen) > idxOff {
			return nil, fmt.Errorf("memtrace: index entry %d: payload [%d,%d) outside body", i, off, off+int64(payloadLen))
		}
		m := chunkMeta{proc: int(proc), count: int(count), payloadLen: int(payloadLen), payloadOff: off}
		if payload, refs, err = sr.readChunk(m, payload, refs); err != nil {
			return nil, err
		}
		for _, r := range refs {
			if uint64(r.Block) >= blocks {
				return nil, fmt.Errorf("memtrace: index entry %d: block %d beyond the index's %d-block space", i, r.Block, blocks)
			}
		}
		sr.perProc[proc] = append(sr.perProc[proc], m)
	}
	for p, chunks := range sr.perProc {
		if len(chunks) == 0 {
			return nil, fmt.Errorf("memtrace: processor %d has no chunks (empty stream)", p)
		}
	}
	return sr, nil
}

// Procs returns the number of processor streams.
func (s *StreamReader) Procs() int { return s.procs }

// Blocks returns the address-space size recorded in the index.
func (s *StreamReader) Blocks() int { return s.blocks }

// Len returns the total number of references in proc's stream.
func (s *StreamReader) Len(proc int) int {
	n := 0
	for _, m := range s.perProc[proc] {
		n += m.count
	}
	return n
}

// Scan decodes the trace sequentially, visiting one chunk at a time in
// file order (see ScanChunked).
func (s *StreamReader) Scan(visit func(proc int, refs []addr.Ref) error) error {
	_, err := ScanChunked(io.NewSectionReader(s.r, 0, s.size), visit)
	return err
}

// WriteText encodes the trace in the line format. Text interleaves the
// processors' streams, so the trace is read into memory first, through
// the sequential reader, which reports a corrupt chunk as an error.
func (s *StreamReader) WriteText(w io.Writer) error {
	t, err := ReadChunked(io.NewSectionReader(s.r, 0, s.size))
	if err != nil {
		return err
	}
	return t.WriteText(w)
}

// WriteChunked re-chunks the trace without materializing it.
func (s *StreamReader) WriteChunked(w io.Writer, chunkCap int) error {
	return writeChunked(w, s, chunkCap)
}

// Close releases the backing file or mapping, if the reader owns one.
func (s *StreamReader) Close() error {
	if s.closer == nil {
		return nil
	}
	c := s.closer
	s.closer = nil
	return c.Close()
}

// procCursor walks one processor's chunk list, holding exactly one
// decoded chunk at a time.
type procCursor struct {
	chunk   int // index into perProc[proc]
	pos     int // next reference within refs
	refs    []addr.Ref
	payload []byte
}

// StreamGen is a workload.Generator replaying a StreamReader. Each
// processor advances through its own chunks and wraps around
// independently at stream end — the same contract as the in-memory
// replayer — so replaying more references than stored is well defined
// and Results are byte-identical to an in-memory replay. Resident
// decoded state is O(procs · chunkCap) regardless of trace size.
type StreamGen struct {
	s        *StreamReader
	cursors  []procCursor
	resident int64
	maxRes   int64
}

// Generator returns a fresh replaying generator. Generators are
// independent and single-goroutine, but any number may run concurrently
// over one StreamReader.
func (s *StreamReader) Generator() workload.Generator { return s.Stream() }

// Stream returns the concrete generator (exposing residency accounting
// that the workload.Generator interface hides).
func (s *StreamReader) Stream() *StreamGen {
	return &StreamGen{s: s, cursors: make([]procCursor, s.procs)}
}

// Blocks implements workload.Generator.
func (g *StreamGen) Blocks() int { return g.s.blocks }

// MaxResidentBytes reports the high-water mark of decoded chunk bytes
// (payload buffers + decoded references) held by this generator — the
// observable guarantee that streaming replay never loads the trace.
func (g *StreamGen) MaxResidentBytes() int64 { return g.maxRes }

// Next implements workload.Generator. OpenStream decoded every chunk,
// so the one failure left is an I/O error reading the backing after
// open; like the in-memory replayer, Next panics on it, because
// generators have no error channel.
func (g *StreamGen) Next(proc int) addr.Ref {
	c := &g.cursors[proc]
	if c.pos >= len(c.refs) {
		g.load(proc)
		c = &g.cursors[proc]
	}
	ref := c.refs[c.pos]
	c.pos++
	return ref
}

// load decodes proc's next chunk (wrapping at stream end) into the
// cursor, replacing the previous chunk's buffers.
func (g *StreamGen) load(proc int) {
	c := &g.cursors[proc]
	chunks := g.s.perProc[proc]
	if c.refs != nil {
		c.chunk = (c.chunk + 1) % len(chunks)
	}
	m := chunks[c.chunk]

	g.resident -= int64(cap(c.payload)) + int64(cap(c.refs))*int64(refSize)
	var err error
	if c.payload, c.refs, err = g.s.readChunk(m, c.payload, c.refs); err != nil {
		panic(fmt.Sprintf("memtrace: stream replay: %v", err))
	}
	c.pos = 0
	g.resident += int64(cap(c.payload)) + int64(cap(c.refs))*int64(refSize)
	if g.resident > g.maxRes {
		g.maxRes = g.resident
	}
}

// readChunk reads m's payload into payload and decodes it into refs,
// growing either as needed.
func (s *StreamReader) readChunk(m chunkMeta, payload []byte, refs []addr.Ref) ([]byte, []addr.Ref, error) {
	if cap(payload) < m.payloadLen {
		payload = make([]byte, m.payloadLen)
	}
	payload = payload[:m.payloadLen]
	if _, err := s.r.ReadAt(payload, m.payloadOff); err != nil {
		return payload, refs, fmt.Errorf("memtrace: reading chunk at %d: %w", m.payloadOff, err)
	}
	if cap(refs) < m.count {
		refs = make([]addr.Ref, 0, m.count)
	}
	decoded, err := decodePayload(payload, m.count, refs)
	if err != nil {
		return payload, refs, err
	}
	return payload, decoded, nil
}

// refSize approximates the in-memory size of one decoded addr.Ref for
// residency accounting.
const refSize = 16

// Source is a trace opened for replay: the common face of the in-memory
// Trace and the StreamReader, consumed by system.RunFromTrace and the
// CLIs.
type Source interface {
	// Procs returns the number of processor streams.
	Procs() int
	// Generator returns an independent replaying generator.
	Generator() workload.Generator
	// Scan visits every reference once, in storage order, a slice at a
	// time; the slice is valid only during the call.
	Scan(visit func(proc int, refs []addr.Ref) error) error
	// WriteText and WriteChunked encode the trace in either format.
	WriteText(w io.Writer) error
	WriteChunked(w io.Writer, chunkCap int) error
}

// Close releases resources held by src if it holds any (StreamReader
// does; in-memory traces do not).
func CloseSource(src Source) error {
	if c, ok := src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// OpenFile opens a trace file, telling the formats apart by their first
// bytes: MTRC2 streams (mmap-backed where available, so pages fault in on
// demand), the retired MTRC1 is refused by name, and anything else is
// parsed as text, which materializes in memory.
func OpenFile(path string) (Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	magic := make([]byte, len(chunkMagic))
	n, err := io.ReadFull(f, magic)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		f.Close()
		return nil, fmt.Errorf("memtrace: reading %s: %w", path, err)
	}
	switch err := checkMagic(magic[:n]); {
	case err == errRetired:
		f.Close()
		return nil, err
	case err != nil: // not MTRC2: text
		defer f.Close()
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		return ReadText(bufio.NewReaderSize(f, 1<<20))
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	sr, closer, err := openStreamBacking(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	sr.closer = closer
	return sr, nil
}

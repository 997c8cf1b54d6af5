package tracegen

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"twobit/internal/addr"
	"twobit/internal/memtrace"
	"twobit/internal/workload"
)

// Trace-segment cache: synthesized scenario segments keyed by the
// resolved spec. A sweep campaign re-derives each point's reference
// stream from (Spec, Seed) on every execution — cheap for one run,
// but a campaign replayed across sweeps (resumes, slices run by
// separate processes, A/B plan edits that keep most points) regenerates identical
// segments over and over. The cache stores each segment once, in the
// chunked trace format, under a name derived from everything that
// determines its bytes; replay through the cache is byte-identical
// to live generation because streaming synthesis and the live
// generator are already proven to agree (TestSynthesizeMatchesLive).

// cacheKey digests everything that determines a segment's content:
// the format version, the chunk capacity the file is written with,
// the reference count, and the resolved spec itself (every field of
// which feeds the generator). Spec is a flat JSON-tagged struct, so
// its canonical encoding is deterministic.
func cacheKey(spec Spec, refsPerProc int) (uint64, error) {
	js, err := json.Marshal(spec)
	if err != nil {
		return 0, fmt.Errorf("tracegen: hashing spec: %w", err)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "mtrc2:1:%d:%d:", memtrace.DefaultChunkCap, refsPerProc)
	h.Write(js)
	return h.Sum64(), nil
}

// SegmentPath returns the cache file path for the segment (spec,
// refsPerProc) under dir, without touching the filesystem.
func SegmentPath(dir string, spec Spec, refsPerProc int) (string, error) {
	key, err := cacheKey(spec, refsPerProc)
	if err != nil {
		return "", err
	}
	return filepath.Join(dir, fmt.Sprintf("seg-%016x.mtrc2", key)), nil
}

// writeSegment synthesizes the segment to a temporary file in dir and
// renames it into place, so concurrent writers (sweep workers racing
// on the same point shape) each produce a complete file and the
// rename — of identical bytes, since synthesis is deterministic —
// is atomic either way.
func writeSegment(dir, path string, spec Spec, refsPerProc int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "seg-*.tmp")
	if err != nil {
		return err
	}
	if err := Synthesize(tmp, spec, refsPerProc, 0, nil); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// cachedGen replays a cached segment as the generator the live spec
// would produce. The one divergence it must paper over: the chunked
// footer records only the highest block actually referenced, while
// the machine sizes its address space (directories, memory modules)
// from Blocks() — so the wrapper answers with the spec's full
// address-space size, exactly as live generation would.
type cachedGen struct {
	src    memtrace.Source
	gen    workload.Generator
	blocks int
}

func (g *cachedGen) Next(proc int) addr.Ref { return g.gen.Next(proc) }
func (g *cachedGen) Blocks() int            { return g.blocks }

// Close releases the segment's backing (the mmap of a chunked file).
// Callers that obtained the generator from CachedGenerator own it and
// should close after the run completes.
func (g *cachedGen) Close() error { return memtrace.CloseSource(g.src) }

// EnsureSegment materializes the cache entry for (spec, refsPerProc)
// under dir — reusing a valid existing entry, regenerating a corrupt
// or truncated one — and returns its path plus whether it was a hit.
func EnsureSegment(dir string, spec Spec, refsPerProc int) (string, bool, error) {
	if err := spec.Validate(); err != nil {
		return "", false, err
	}
	if refsPerProc < 1 {
		return "", false, fmt.Errorf("tracegen: refsPerProc = %d, need ≥ 1", refsPerProc)
	}
	path, err := SegmentPath(dir, spec, refsPerProc)
	if err != nil {
		return "", false, err
	}
	if src, err := openSegment(path, spec); err == nil {
		memtrace.CloseSource(src)
		return path, true, nil
	}
	if err := writeSegment(dir, path, spec, refsPerProc); err != nil {
		return "", false, err
	}
	return path, false, nil
}

// CachedGenerator returns a workload generator for the scenario that
// replays from the on-disk segment cache under dir, synthesizing and
// storing the segment on first use. The returned generator is
// byte-for-byte equivalent to New(spec) driven refsPerProc references
// per processor, and implements io.Closer; close it when the run is
// done. A corrupt or truncated cache entry is regenerated in place.
func CachedGenerator(dir string, spec Spec, refsPerProc int) (workload.Generator, error) {
	path, _, err := EnsureSegment(dir, spec, refsPerProc)
	if err != nil {
		return nil, err
	}
	src, err := openSegment(path, spec)
	if err != nil {
		return nil, fmt.Errorf("tracegen: cached segment unreadable: %w", err)
	}
	return &cachedGen{src: src, gen: src.Generator(), blocks: spec.Blocks()}, nil
}

// openSegment opens a cache entry and verifies the cheap invariant the
// key cannot protect against (a hash collision or a foreign file at
// the keyed name): the stream must carry the spec's processor count.
func openSegment(path string, spec Spec) (memtrace.Source, error) {
	src, err := memtrace.OpenFile(path)
	if err != nil {
		return nil, err
	}
	if src.Procs() != spec.Procs {
		memtrace.CloseSource(src)
		return nil, fmt.Errorf("tracegen: cached segment %s holds %d procs, spec wants %d", path, src.Procs(), spec.Procs)
	}
	return src, nil
}

// CloseGenerator closes gen if it holds resources (cached segments
// do; live generators do not). The no-op path makes it safe to call
// unconditionally on any workload generator after its run.
func CloseGenerator(gen workload.Generator) error {
	if c, ok := gen.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

package tracegen

import (
	"io"

	"twobit/internal/addr"
	"twobit/internal/memtrace"
)

// Synthesize streams refsPerProc references per processor of the
// scenario straight into the chunked trace format — the trace never
// exists in memory, so trace length is bounded by disk, not RAM. The
// file replays identically to memtrace.Record over the same generator
// (see memtrace.WriteGenerator). A non-nil st accumulates online
// statistics during the pass.
func Synthesize(w io.Writer, spec Spec, refsPerProc, chunkCap int, st *StreamStats) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	var observe func(proc int, r addr.Ref)
	if st != nil {
		observe = st.Observe
	}
	return memtrace.WriteGenerator(w, New(spec), spec.Procs, refsPerProc, chunkCap, observe)
}

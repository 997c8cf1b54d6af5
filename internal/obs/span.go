// span.go implements transaction-scoped causal tracing: every memory
// reference a processor issues opens a span that follows the reference
// through the cache agent, the directory controller's call queue, the
// memory module, and back, attributing each sim-time segment to the
// protocol phase that ended it. Aggregated per reference class, the
// spans become the measured counterpart of the paper's Table 4-1: a
// phase × class latency attribution matrix.
//
// The design inherits the package invariant. A nil *SpanRecorder (what
// Recorder.Spans returns when spans were never enabled) makes Start,
// Mark and Finish a nil check and nothing else — TestZeroAllocObs pins
// 0 allocations, disabled and in matrix-only mode. An enabled recorder
// only writes its own accumulators and histograms; it never schedules
// (coherencelint's obs-passivity rule covers this file like the rest of
// the package, with a fixture proving a span-side AtCall is flagged).
//
// Phase accounting telescopes: a span keeps the tick of its last mark,
// and each Mark(phase) charges the interval since then to that phase;
// Finish charges the remainder to the cache-access phase. Every tick
// between issue and retire is therefore attributed to exactly one
// phase, which is what makes the exactness test possible — summed phase
// durations equal the end-to-end latency for every reference, and the
// per-class totals reconcile against sys/ref_latency_cycles.
//
// Phase semantics ("attributed to the milestone that ended it"):
//
//	cache        local cache work: hit service and the final fill-to-
//	             retire latency (Latencies.CacheHit per touch)
//	replacement  victim eviction before a miss fill (§3.2.1); usually a
//	             same-tick mark — replacement costs broadcasts, not
//	             requester stall, so its latency share is ~0 by design
//	req_transit  REQUEST/MREQUEST network transit to the controller
//	queue        controller serializer wait + service latency
//	memory       the main-memory read or update on the critical path
//	writeback    broadcast fan-out / directed purge and the owner's
//	             data return (the Present-M write-back detour)
//	data_return  GET or MGRANTED transit back to the requester
//
// The rare §3.2.5 crossings (a BROADINV overtaking an MREQUEST, a
// stale grant refused by MACK) keep the accounting exact: the marks
// still partition the reference's timeline, they just attribute a
// segment to the message that actually ended the wait. References
// issued by DMA devices and by protocols without directory threading
// (classical, duplication, write-once, software) carry no spans; their
// marks are dropped by the cache-index guard.
package obs

import (
	"fmt"
	"io"

	"twobit/internal/sim"
)

// RefClass classifies a memory reference by the protocol work it
// triggers: the paper's Table 4-1 rows (read miss, write miss,
// write-hit-on-unmodified) plus the two locally satisfied classes.
type RefClass uint8

const (
	// ClassReadHit: read satisfied by the local cache.
	ClassReadHit RefClass = iota
	// ClassReadMiss: read requiring a directory REQUEST.
	ClassReadMiss
	// ClassWriteHit: write to a block already Modified locally (or
	// silently upgradable under an exclusive grant).
	ClassWriteHit
	// ClassWriteMiss: write requiring a directory REQUEST.
	ClassWriteMiss
	// ClassWriteUpgrade: write hit on an unmodified block — the §3.2.4
	// MREQUEST/MGRANTED permission round trip.
	ClassWriteUpgrade

	numRefClasses
)

// NumRefClasses is the number of reference classes.
const NumRefClasses = int(numRefClasses)

// Phase identifies one latency attribution bucket of a span.
type Phase uint8

const (
	// PhaseCache: local cache service and the fill-to-retire tail.
	PhaseCache Phase = iota
	// PhaseReplacement: victim eviction preceding a miss fill.
	PhaseReplacement
	// PhaseReqTransit: REQUEST/MREQUEST transit to the controller.
	PhaseReqTransit
	// PhaseQueue: controller serializer wait plus service latency.
	PhaseQueue
	// PhaseMemory: the main-memory access on the critical path.
	PhaseMemory
	// PhaseWriteback: broadcast/purge fan-out and the owner's answer.
	PhaseWriteback
	// PhaseDataReturn: GET or MGRANTED transit back to the requester.
	PhaseDataReturn

	numPhases
)

// NumPhases is the number of attribution phases.
const NumPhases = int(numPhases)

// The name tables are the single source of truth for series naming:
// histogram "span/<class>/<phase>" holds the per-reference duration of
// one matrix cell, "span/<class>/e2e" the end-to-end latency.
var (
	refClassNames = [NumRefClasses]string{
		"read_hit", "read_miss", "write_hit", "write_miss", "write_upgrade",
	}
	phaseNames = [NumPhases]string{
		"cache", "replacement", "req_transit", "queue", "memory", "writeback", "data_return",
	}
)

// String returns the class's series-name spelling.
func (c RefClass) String() string {
	if int(c) >= NumRefClasses {
		return fmt.Sprintf("class%d", int(c))
	}
	return refClassNames[c]
}

// String returns the phase's series-name spelling.
func (ph Phase) String() string {
	if int(ph) >= NumPhases {
		return fmt.Sprintf("phase%d", int(ph))
	}
	return phaseNames[ph]
}

// Span histogram bucket widths: phases are short (transit and service
// latencies of a few cycles) so they get fine buckets; end-to-end
// latencies share the width of sys/ref_latency_cycles so the two series
// stay directly comparable.
const (
	spanPhaseWidth = 4
	spanE2EWidth   = 8
)

// SpanSegment is one attributed interval of a finished span, kept only
// when the recorder retains spans for trace export.
type SpanSegment struct {
	Phase    Phase
	From, To sim.Time
}

// SpanData is one finished span: a complete causal record of a single
// memory reference. Txn ids are assigned in global issue order, so they
// are dense and deterministic.
type SpanData struct {
	Txn        uint64
	Cache      int
	Class      RefClass
	Block      int64
	Start, End sim.Time
	Segs       []SpanSegment
}

// spanState is the in-flight span of one cache. A cache has at most one
// outstanding reference (proto.CacheAgent enforces this), so per-cache
// storage is all the keying a transaction needs: every protocol message
// on the reference's critical path carries the issuing cache's index.
type spanState struct {
	open   bool
	class  RefClass
	marked uint16 // bit i set once phase i has been charged
	txn    uint64
	block  int64
	start  sim.Time
	last   sim.Time
	acc    [NumPhases]uint64
	segs   []SpanSegment // scratch, reused across spans; trace mode only
}

// SpanRecorder aggregates transaction spans into the phase × class
// attribution matrix. Obtain one with Recorder.EnableSpans before the
// machine is built; protocol code fetches it via Recorder.Spans. The
// nil *SpanRecorder is the disabled instrument: every method on it is
// safe and free.
type SpanRecorder struct {
	r     *Recorder
	cells [NumRefClasses][NumPhases]*Histogram
	e2e   [NumRefClasses]*Histogram

	active  []spanState
	nextTxn uint64

	// Trace retention: when maxSpans > 0, finished spans (with their
	// segment lists) are kept for WriteSpanTrace, deterministically
	// dropping the newest once full.
	maxSpans  int
	finished  []SpanData
	truncated uint64
}

// EnableSpans switches transaction-span recording on and returns the
// span recorder. All matrix histograms are registered eagerly so every
// snapshot carries the full cell set (zero-count cells included) and
// worker snapshots merge without width conflicts. maxSpans > 0
// additionally retains up to that many finished spans for trace export;
// aggregation-only users (sweep campaigns) pass 0. Idempotent: a second
// call returns the same recorder and ignores its argument.
func (r *Recorder) EnableSpans(maxSpans int) *SpanRecorder {
	if r == nil {
		return nil
	}
	if r.spans != nil {
		return r.spans
	}
	sp := &SpanRecorder{r: r, maxSpans: maxSpans}
	for c := 0; c < NumRefClasses; c++ {
		for p := 0; p < NumPhases; p++ {
			sp.cells[c][p] = r.Histogram("span/"+refClassNames[c]+"/"+phaseNames[p], spanPhaseWidth)
		}
		sp.e2e[c] = r.Histogram("span/"+refClassNames[c]+"/e2e", spanE2EWidth)
	}
	r.spans = sp
	return sp
}

// Spans returns the span recorder, or nil when spans were never
// enabled (or r itself is nil). Protocol components call this once at
// construction and hold the result.
func (r *Recorder) Spans() *SpanRecorder {
	if r == nil {
		return nil
	}
	return r.spans
}

// Start opens the span for cache's next memory reference. cache < 0
// (a DMA device or an unthreaded protocol) records nothing.
func (sp *SpanRecorder) Start(cache int, class RefClass, block int64) {
	if sp == nil || cache < 0 {
		return
	}
	for len(sp.active) <= cache {
		sp.active = append(sp.active, spanState{})
	}
	st := &sp.active[cache]
	if st.open {
		panic(fmt.Sprintf("obs: span already open for cache %d (txn %d): a cache has one outstanding reference", cache, st.txn))
	}
	now := sp.r.now()
	st.open = true
	st.class = class
	st.marked = 0
	st.txn = sp.nextTxn
	sp.nextTxn++
	st.block = block
	st.start = now
	st.last = now
	st.acc = [NumPhases]uint64{}
	st.segs = st.segs[:0]
}

// Mark charges the sim time since the previous mark (or Start) of
// cache's open span to phase ph. Marks against caches with no open
// span — stale protocol crossings, DMA indices — are dropped.
func (sp *SpanRecorder) Mark(cache int, ph Phase) {
	if sp == nil || cache < 0 || cache >= len(sp.active) {
		return
	}
	st := &sp.active[cache]
	if !st.open {
		return
	}
	now := sp.r.now()
	st.acc[ph] += uint64(now - st.last)
	st.marked |= 1 << ph
	if sp.maxSpans > 0 {
		st.segs = append(st.segs, SpanSegment{Phase: ph, From: st.last, To: now})
	}
	st.last = now
}

// Finish closes cache's open span at reference retirement: the tail
// since the last mark is charged to the cache phase, each charged
// phase's total lands in its matrix cell, and the end-to-end latency in
// the class's e2e histogram.
func (sp *SpanRecorder) Finish(cache int) {
	if sp == nil || cache < 0 || cache >= len(sp.active) {
		return
	}
	st := &sp.active[cache]
	if !st.open {
		return
	}
	now := sp.r.now()
	st.acc[PhaseCache] += uint64(now - st.last)
	st.marked |= 1 << PhaseCache
	if sp.maxSpans > 0 {
		st.segs = append(st.segs, SpanSegment{Phase: PhaseCache, From: st.last, To: now})
	}
	c := int(st.class)
	sp.e2e[c].Observe(uint64(now - st.start))
	for p := 0; p < NumPhases; p++ {
		if st.marked&(1<<p) != 0 {
			sp.cells[c][p].Observe(st.acc[p])
		}
	}
	if sp.maxSpans > 0 {
		if len(sp.finished) < sp.maxSpans {
			segs := make([]SpanSegment, len(st.segs))
			copy(segs, st.segs)
			sp.finished = append(sp.finished, SpanData{
				Txn: st.txn, Cache: cache, Class: st.class, Block: st.block,
				Start: st.start, End: now, Segs: segs,
			})
		} else {
			sp.truncated++
		}
	}
	st.open = false
}

// Finished returns the retained finished spans in retirement order.
func (sp *SpanRecorder) Finished() []SpanData {
	if sp == nil {
		return nil
	}
	return sp.finished
}

// Truncated returns how many finished spans were dropped because the
// retention limit was reached. Aggregation histograms are never
// truncated; only the per-span trace detail is.
func (sp *SpanRecorder) Truncated() uint64 {
	if sp == nil {
		return 0
	}
	return sp.truncated
}

// PhaseLatency is one matrix cell: the distribution of one phase's
// duration across one class's references.
type PhaseLatency struct {
	Phase string
	Hist  HistogramValue
}

// ClassLatency is one matrix row group: a reference class's end-to-end
// latency and its per-phase attribution, phases in declaration order.
type ClassLatency struct {
	Class  string
	E2E    HistogramValue
	Phases []PhaseLatency
}

// SpanMatrix is the phase × reference-class latency attribution matrix
// extracted from a snapshot — the measured Table 4-1.
type SpanMatrix struct {
	Classes []ClassLatency
}

// SpanMatrixFrom extracts the attribution matrix from a snapshot. ok is
// false when the snapshot carries no span series (spans were disabled).
// Iteration is over the static name tables, so the result is fully
// deterministic and includes zero-count cells.
func SpanMatrixFrom(s Snapshot) (SpanMatrix, bool) {
	var m SpanMatrix
	found := false
	for c := 0; c < NumRefClasses; c++ {
		cl := ClassLatency{Class: refClassNames[c]}
		if e2e, ok := s.Hist("span/" + refClassNames[c] + "/e2e"); ok {
			cl.E2E = e2e
			found = true
		}
		for p := 0; p < NumPhases; p++ {
			h, _ := s.Hist("span/" + refClassNames[c] + "/" + phaseNames[p])
			cl.Phases = append(cl.Phases, PhaseLatency{Phase: phaseNames[p], Hist: h})
		}
		m.Classes = append(m.Classes, cl)
	}
	return m, found
}

// Refs returns the total number of spanned references in the matrix.
func (m SpanMatrix) Refs() uint64 {
	var n uint64
	for _, cl := range m.Classes {
		n += cl.E2E.Count
	}
	return n
}

// WriteText renders the matrix as a fixed-width table: one block per
// populated class (count, e2e mean/p50/p99/max) with a row per charged
// phase including its share of the class's total cycles.
func (m SpanMatrix) WriteText(w io.Writer) error {
	for _, cl := range m.Classes {
		if cl.E2E.Count == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%-14s refs %8d   e2e mean %8.2f  p50 %5d  p99 %5d  max %5d\n",
			cl.Class, cl.E2E.Count, cl.E2E.Mean(), cl.E2E.Quantile(0.50), cl.E2E.Quantile(0.99), cl.E2E.Max); err != nil {
			return err
		}
		for _, ph := range cl.Phases {
			if ph.Hist.Count == 0 {
				continue
			}
			share := 0.0
			if cl.E2E.Sum > 0 {
				share = 100 * float64(ph.Hist.Sum) / float64(cl.E2E.Sum)
			}
			if _, err := fmt.Fprintf(w, "  %-12s count %8d   mean %8.2f  p50 %5d  p99 %5d  max %5d  share %5.1f%%\n",
				ph.Phase, ph.Hist.Count, ph.Hist.Mean(), ph.Hist.Quantile(0.50), ph.Hist.Quantile(0.99), ph.Hist.Max, share); err != nil {
				return err
			}
		}
	}
	return nil
}

// Package obs is the simulator's observability layer: structured
// sim-time event tracing into a bounded ring buffer, typed counters and
// fixed-bucket latency histograms registered per component, and
// profiling spans around handler dispatch, with a Chrome trace_event
// exporter so a recorded run opens directly in chrome://tracing or
// Perfetto (see chrome.go).
//
// The package is built around one invariant, stated two ways:
//
//   - Free when off. Every hot-path entry point — Recorder.Emit, Begin,
//     End, AsyncBegin, AsyncEnd, Counter.Inc/Add, Histogram.Observe —
//     is a method on a possibly-nil receiver that returns immediately
//     when the receiver is nil. A machine built without a recorder
//     therefore executes a nil check and nothing else per hook.
//     TestZeroAllocObs pins this at zero allocations in every `go test`
//     run, and an enabled recorder at zero once its storage has grown.
//
//   - Passive when on. A recorder only ever writes its own state: it
//     never schedules kernel events, sends messages, or touches
//     simulation structures, so recording cannot perturb event order.
//     internal/lint's determinism analyzer enforces this statically
//     (any Kernel.AtCall/AfterCall or Network.Send/Broadcast call inside
//     this package is a diagnostic) and TestObsDoesNotPerturb in
//     internal/system proves it dynamically: results with and without a
//     recorder are byte-identical.
//
// Sim time enters a recorder once per kernel event: the machine installs
// a KernelProfile as its kernel hook, whose BeforeEvent hands the
// event's time to Recorder.SetTime before the event runs. Every
// instrument reads that stamp, so no hot-path call reaches a clock;
// kernel time changes only between events, so the stamp is the kernel's
// time wherever a component records.
//
// Track names follow the component convention "cache<k>", "ctrl<j>",
// "dma<d>" (matching internal/system's node naming); metric names are
// "<component>/<metric>", e.g. "ctrl0/queue_depth", with the synthetic
// components "net", "sys" and "kernel" for machine-wide series.
package obs

import (
	"fmt"
	"math/bits"

	"twobit/internal/sim"
)

// Component identifies a registered trace track (one per cache,
// controller, DMA device, ...). The zero Component is the first
// registered track; NoComponent is what a nil recorder hands out.
type Component int32

// NoComponent is the component id returned by a nil recorder. Events
// emitted against it are dropped by the exporter.
const NoComponent Component = -1

// EventKind classifies a traced event.
type EventKind uint8

const (
	// EventInstant is a point event (a directory transition, a message
	// send).
	EventInstant EventKind = iota
	// EventSpanBegin/EventSpanEnd bracket synchronous work on one
	// track, e.g. handler dispatch; they must nest per track.
	EventSpanBegin
	EventSpanEnd
	// EventAsyncBegin/EventAsyncEnd bracket overlapping transactions
	// keyed by Block (Chrome "b"/"e" async events), e.g. a controller's
	// per-block coherence transactions.
	EventAsyncBegin
	EventAsyncEnd
)

// Event is one ring-buffer entry. Name must be a static (or interned)
// string: the hot path stores it without copying.
type Event struct {
	Tick  sim.Time
	Comp  Component
	Kind  EventKind
	Name  string
	Block int64 // block address the event concerns; -1 when not block-scoped
	Arg   int64 // event-specific payload (fan-out, previous state, ...)
}

// DefaultRingCapacity is the event capacity CLI tools use unless told
// otherwise: 65536 events, enough to hold a small run completely.
const DefaultRingCapacity = 1 << 16

// Recorder collects events and metrics for one machine run. Construct
// with New, hand to system.Config.Obs; a nil *Recorder is the disabled
// instrument — every method is safe and free on it.
//
// A Recorder is deliberately single-threaded, like the event kernel it
// observes; do not share one across concurrently running machines.
type Recorder struct {
	// tick is the sim time every instrument stamps with, set by SetTime:
	// once per kernel event by the KernelProfile hook, so no hot-path
	// call reads a clock.
	tick sim.Time
	// clock, when bound by SetClock, overrides tick.
	clock func() sim.Time

	comps   []string
	compIdx map[string]Component

	// Registration order is kept in the slices; the maps are lookup
	// only and are never iterated, so no map order can leak anywhere.
	counters   []*Counter
	counterIdx map[string]int
	hists      []*Histogram
	histIdx    map[string]int

	ring    []Event
	head    int // next write slot
	count   int // live events (≤ len(ring))
	dropped uint64

	// spans is the transaction-span aggregator, nil until EnableSpans
	// (see span.go).
	spans *SpanRecorder

	// windows is the windowed time-series aggregator, nil until
	// EnableWindows (see timeseries.go).
	windows *TSRecorder

	// contention is the per-address profiler, nil until
	// EnableContention (see contention.go).
	contention *ContentionRecorder
}

// New returns a recorder with capacity for ringCapacity trace events;
// when full, the oldest events are overwritten (and counted in
// Dropped). ringCapacity ≤ 0 disables event tracing entirely — metrics
// still work, which is what sweep campaigns use.
func New(ringCapacity int) *Recorder {
	r := &Recorder{
		compIdx:    make(map[string]Component),
		counterIdx: make(map[string]int),
		histIdx:    make(map[string]int),
	}
	if ringCapacity > 0 {
		r.ring = make([]Event, ringCapacity)
	}
	return r
}

// SetTime sets the sim time events and windows are stamped with. The
// machine's KernelProfile hook calls it with each event's time before
// the event runs, and the machine with 0 when it starts a run; a
// recorder nobody sets stamps 0.
func (r *Recorder) SetTime(at sim.Time) {
	if r == nil {
		return
	}
	r.tick = at
}

// SetClock binds a clock the recorder reads on every stamp instead of
// the time SetTime set: the pull form, for a caller that drives a
// recorder without a kernel and cannot call SetTime. A machine never
// binds one. SetClock(nil) returns the recorder to SetTime's time.
func (r *Recorder) SetClock(clock func() sim.Time) {
	if r == nil {
		return
	}
	r.clock = clock
}

// Component registers (or looks up) a trace track by name and returns
// its id. Registration is idempotent: the network and the protocol
// agent of one node both resolve the same name to the same track.
func (r *Recorder) Component(name string) Component {
	if r == nil {
		return NoComponent
	}
	if c, ok := r.compIdx[name]; ok {
		return c
	}
	c := Component(len(r.comps))
	r.comps = append(r.comps, name)
	r.compIdx[name] = c
	return c
}

// Components returns the registered track names, indexed by Component.
func (r *Recorder) Components() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.comps))
	copy(out, r.comps)
	return out
}

// Counter registers (or looks up) a named counter.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if i, ok := r.counterIdx[name]; ok {
		return r.counters[i]
	}
	c := &Counter{name: name}
	r.counterIdx[name] = len(r.counters)
	r.counters = append(r.counters, c)
	return c
}

// Histogram registers (or looks up) a named fixed-bucket histogram with
// the given bucket width. Re-registering with a different width panics:
// it is always a wiring bug, and merging such series would be
// meaningless.
func (r *Recorder) Histogram(name string, bucketWidth uint64) *Histogram {
	if r == nil {
		return nil
	}
	if i, ok := r.histIdx[name]; ok {
		h := r.hists[i]
		if h.width != bucketWidth {
			panic(fmt.Sprintf("obs: histogram %q registered with bucket width %d, re-requested with %d",
				name, h.width, bucketWidth))
		}
		return h
	}
	if bucketWidth < 1 {
		panic(fmt.Sprintf("obs: histogram %q needs a bucket width ≥ 1, got %d", name, bucketWidth))
	}
	h := &Histogram{name: name, width: bucketWidth, shift: -1}
	if bucketWidth&(bucketWidth-1) == 0 {
		h.shift = int8(bits.TrailingZeros64(bucketWidth))
	}
	r.histIdx[name] = len(r.hists)
	r.hists = append(r.hists, h)
	return h
}

func (r *Recorder) now() sim.Time {
	if r.clock != nil {
		return r.clock()
	}
	return r.tick
}

// record appends one event to the ring, overwriting the oldest entry
// when full. It allocates nothing: the ring is preallocated and the
// name string is stored by reference. Its callers check for a ring
// first, inline, so a metrics-only recorder pays no call per event.
func (r *Recorder) record(kind EventKind, c Component, name string, block, arg int64) {
	if r.count == len(r.ring) {
		r.dropped++
	} else {
		r.count++
	}
	r.ring[r.head] = Event{Tick: r.now(), Comp: c, Kind: kind, Name: name, Block: block, Arg: arg}
	r.head++
	if r.head == len(r.ring) {
		r.head = 0
	}
}

// Emit records an instant event on component c. block is the block
// address the event concerns (-1 when none); arg is free payload.
func (r *Recorder) Emit(c Component, name string, block, arg int64) {
	if r == nil || len(r.ring) == 0 {
		return
	}
	r.record(EventInstant, c, name, block, arg)
}

// Begin opens a synchronous span on component c. Spans must nest per
// component and be closed by End with the same name and block.
func (r *Recorder) Begin(c Component, name string, block int64) {
	if r == nil || len(r.ring) == 0 {
		return
	}
	r.record(EventSpanBegin, c, name, block, 0)
}

// End closes the innermost open span with this name on component c.
func (r *Recorder) End(c Component, name string, block int64) {
	if r == nil || len(r.ring) == 0 {
		return
	}
	r.record(EventSpanEnd, c, name, block, 0)
}

// AsyncBegin opens an overlapping transaction span identified by id
// (conventionally the block address, which is unique among open
// controller transactions).
func (r *Recorder) AsyncBegin(c Component, name string, id int64) {
	if r == nil || len(r.ring) == 0 {
		return
	}
	r.record(EventAsyncBegin, c, name, id, 0)
}

// AsyncEnd closes the transaction span opened with the same name and id.
func (r *Recorder) AsyncEnd(c Component, name string, id int64) {
	if r == nil || len(r.ring) == 0 {
		return
	}
	r.record(EventAsyncEnd, c, name, id, 0)
}

// Events returns the ring's contents oldest-first.
func (r *Recorder) Events() []Event {
	if r == nil || r.count == 0 {
		return nil
	}
	out := make([]Event, 0, r.count)
	start := r.head - r.count
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// EventCount returns the number of events currently held in the ring.
func (r *Recorder) EventCount() int {
	if r == nil {
		return 0
	}
	return r.count
}

// Dropped returns how many events the ring overwrote because it was
// full. A nonzero value means the exported trace shows only the tail of
// the run; raise the ring capacity to see all of it.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// KernelProfile implements sim.Hook: it is how sim time enters the
// recorder, once per kernel event, and it counts executed kernel events
// and the sim-time gaps between them. NewKernelProfile(nil) returns
// nil; a nil profile is a safe no-op hook, but callers should simply
// not install one.
type KernelProfile struct {
	r      *Recorder
	events *Counter
	gaps   *Histogram
	last   sim.Time
	seen   bool
}

// NewKernelProfile registers the kernel series ("kernel/events",
// "kernel/event_gap_cycles") on r and returns the hook to install with
// Kernel.SetHook.
func NewKernelProfile(r *Recorder) *KernelProfile {
	if r == nil {
		return nil
	}
	return &KernelProfile{
		r:      r,
		events: r.Counter("kernel/events"),
		gaps:   r.Histogram("kernel/event_gap_cycles", 1),
	}
}

// BeforeEvent implements sim.Hook: it stamps the recorder with the
// event's time, then counts the event and its gap from the last one. A
// same-tick event, the common case, lands in bucket 0 without the
// general Observe.
func (p *KernelProfile) BeforeEvent(at sim.Time) {
	if p == nil {
		return
	}
	p.r.SetTime(at)
	p.events.v++
	if p.seen {
		if gap := uint64(at - p.last); gap == 0 {
			p.gaps.count++
			p.gaps.buckets[0]++
		} else {
			p.gaps.Observe(gap)
		}
	}
	p.last = at
	p.seen = true
}

// AfterEvent implements sim.Hook.
func (p *KernelProfile) AfterEvent(at sim.Time) {}

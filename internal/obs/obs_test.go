package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"twobit/internal/sim"
)

// One reference's worth of each instrument family, as the machine's hook
// sites call them. Each takes the recorder it is handed — nil for the
// disabled configuration — and returns the per-reference body.

// eventsRef: a span, a counter bump, two histogram observations, an
// async transaction and an instant.
func eventsRef(rec *Recorder) func(i int) {
	comp := rec.Component("cache0")
	refs := rec.Counter("cache0/refs")
	lat := rec.Histogram("cache0/lat", 4)
	depth := rec.Histogram("ctrl0/queue_depth", 1)
	return func(i int) {
		v, id := uint64(i), int64(i&1023)
		refs.Inc()
		rec.Begin(comp, "ref read", id)
		lat.Observe(v & 63)
		depth.Observe(v & 7)
		rec.AsyncBegin(comp, "txn READ", id)
		rec.Emit(comp, "dir to Present1", id, 0)
		rec.AsyncEnd(comp, "txn READ", id)
		rec.End(comp, "ref read", id)
	}
}

// spansRef: open a transaction span, three phase boundaries, close.
func spansRef(rec *Recorder) func(i int) {
	sp := rec.Spans()
	return func(i int) {
		c := i & 3
		sp.Start(c, ClassReadMiss, int64(i&1023))
		sp.Mark(c, PhaseReqTransit)
		sp.Mark(c, PhaseMemory)
		sp.Mark(c, PhaseDataReturn)
		sp.Finish(c)
	}
}

// seriesRef: a sum-window bump, a queue-depth peak, a census gauge move
// and the contention profiler's three touches, with sim time advancing
// so the publishes land in successive windows.
func seriesRef(rec *Recorder) func(i int) {
	var now sim.Time
	rec.SetClock(func() sim.Time { return now })
	refs := rec.Windows().Series("sys/refs", SeriesSum)
	depth := rec.Windows().Series("ctrl0/queue_depth", SeriesMax)
	census := rec.Windows().Series("dir/present_m", SeriesGauge)
	ct := rec.Contention()
	return func(i int) {
		now = sim.Time(i >> 2)
		refs.Inc()
		depth.Observe(uint64(i & 7))
		census.GaugeAdd(int64(i&1)*2 - 1)
		ct.Ref(uint64(i & 255))
		ct.Write(uint64(i&255), i&7, i&3)
		ct.Invalidation(uint64(i & 255))
	}
}

// TestZeroAllocObs holds the package invariant's cost half. Disabled
// (nil recorder), every hook is a nil check and nothing else — one
// allocation per call would tax every uninstrumented simulation. Enabled,
// the instruments write into storage they already own: a warm-up pass
// fills the event ring and opens every window, span slot and sketch
// entry the measured passes revisit, after which recording allocates
// nothing either.
func TestZeroAllocObs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	matrixOnly := New(0) // no per-span retention: the sweep-campaign configuration
	matrixOnly.EnableSpans(0)
	observatory := New(0)
	observatory.EnableWindows(64)
	observatory.EnableContention(64)
	for _, tc := range []struct {
		name string
		rec  *Recorder
		ref  func(*Recorder) func(int)
	}{
		{"events/disabled", nil, eventsRef},
		{"events/enabled", New(1 << 12), eventsRef},
		{"spans/disabled", nil, spansRef},
		{"spans/matrix-only", matrixOnly, spansRef},
		{"series/disabled", nil, seriesRef},
		{"series/enabled", observatory, seriesRef},
	} {
		ref := tc.ref(tc.rec)
		pass := func() {
			for i := 0; i < 4096; i++ {
				ref(i)
			}
		}
		pass()
		if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
			t.Errorf("%s: %v allocations per 4096 references, want 0", tc.name, allocs)
		}
	}
}

// TestNilRecorderIsSafe drives every hot-path entry point through a nil
// recorder and its nil instruments: the disabled configuration must be
// inert, not a crash.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.SetClock(func() sim.Time { return 42 })
	c := r.Component("cache0")
	if c != NoComponent {
		t.Fatalf("nil recorder Component = %d, want NoComponent", c)
	}
	ctr := r.Counter("x")
	ctr.Inc()
	ctr.Add(7)
	if ctr.Value() != 0 || ctr.Name() != "" {
		t.Fatalf("nil counter leaked state: %d %q", ctr.Value(), ctr.Name())
	}
	h := r.Histogram("y", 4)
	h.Observe(9)
	if h.Count() != 0 || h.Name() != "" {
		t.Fatalf("nil histogram leaked state")
	}
	r.Emit(c, "e", 1, 2)
	r.Begin(c, "s", 1)
	r.End(c, "s", 1)
	r.AsyncBegin(c, "t", 3)
	r.AsyncEnd(c, "t", 3)
	if r.Events() != nil || r.EventCount() != 0 || r.Dropped() != 0 || r.Components() != nil {
		t.Fatalf("nil recorder reported recorded state")
	}
	if got := r.Snapshot(); len(got.Counters) != 0 || len(got.Hists) != 0 {
		t.Fatalf("nil recorder snapshot not empty: %+v", got)
	}
	var p *KernelProfile
	p.BeforeEvent(1)
	p.AfterEvent(1)
	if NewKernelProfile(nil) != nil {
		t.Fatalf("NewKernelProfile(nil) should return nil")
	}
}

func TestComponentRegistrationIsIdempotent(t *testing.T) {
	r := New(8)
	a := r.Component("cache0")
	b := r.Component("ctrl0")
	if a == b {
		t.Fatalf("distinct names mapped to one component")
	}
	if again := r.Component("cache0"); again != a {
		t.Fatalf("re-registering cache0: got %d, want %d", again, a)
	}
	want := []string{"cache0", "ctrl0"}
	got := r.Components()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Components() = %v, want %v", got, want)
	}
}

func TestInstrumentRegistrationIsIdempotent(t *testing.T) {
	r := New(0)
	c1 := r.Counter("n/sends")
	c1.Inc()
	c2 := r.Counter("n/sends")
	c2.Inc()
	if c1 != c2 || c1.Value() != 2 {
		t.Fatalf("counter registry handed out distinct counters for one name")
	}
	h1 := r.Histogram("n/lat", 4)
	h2 := r.Histogram("n/lat", 4)
	if h1 != h2 {
		t.Fatalf("histogram registry handed out distinct histograms for one name")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("width mismatch did not panic")
		}
	}()
	r.Histogram("n/lat", 8)
}

func TestRingOverwritesOldest(t *testing.T) {
	r := New(4)
	var tick sim.Time
	r.SetClock(func() sim.Time { return tick })
	c := r.Component("x")
	for i := 0; i < 6; i++ {
		tick = sim.Time(i)
		r.Emit(c, "e", int64(i), 0)
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("EventCount = %d, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Block != int64(i+2) || e.Tick != sim.Time(i+2) {
			t.Fatalf("event %d = %+v, want block/tick %d (oldest-first tail)", i, e, i+2)
		}
	}
}

func TestMetricsOnlyRecorderDropsEvents(t *testing.T) {
	r := New(0)
	c := r.Component("x")
	r.Emit(c, "e", 0, 0)
	r.Begin(c, "s", 0)
	if r.EventCount() != 0 || r.Dropped() != 0 {
		t.Fatalf("metrics-only recorder stored events")
	}
	r.Counter("k").Inc()
	if v, ok := r.Snapshot().Counter("k"); !ok || v != 1 {
		t.Fatalf("metrics-only recorder lost counter")
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := New(0)
	h := r.Histogram("lat", 10)
	for _, v := range []uint64{0, 5, 9, 10, 25, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot()
	hv, ok := s.Hist("lat")
	if !ok {
		t.Fatalf("histogram missing from snapshot")
	}
	if hv.Count != 6 || hv.Sum != 1049 || hv.Max != 1000 {
		t.Fatalf("summary = count %d sum %d max %d", hv.Count, hv.Sum, hv.Max)
	}
	// 0,5,9 → bucket 0; 10 → bucket 1; 25 → bucket 2; 1000 → overflow 31.
	if hv.Buckets[0] != 3 || hv.Buckets[1] != 1 || hv.Buckets[2] != 1 || len(hv.Buckets) != HistogramBuckets || hv.Buckets[31] != 1 {
		t.Fatalf("buckets = %v", hv.Buckets)
	}
	if got := hv.Quantile(0.5); got != 19 {
		t.Fatalf("median = %d, want 19 (upper bound of bucket 1)", got)
	}
	if got := hv.Quantile(0); got != 9 {
		t.Fatalf("q0 = %d, want 9", got)
	}
	if hv.Mean() != 1049.0/6.0 {
		t.Fatalf("mean = %v", hv.Mean())
	}
}

func TestSnapshotIsCanonicalAcrossRegistrationOrder(t *testing.T) {
	a := New(0)
	a.Counter("b").Add(2)
	a.Counter("a").Add(1)
	a.Histogram("z", 4).Observe(3)
	a.Histogram("y", 4).Observe(5)

	b := New(0)
	b.Histogram("y", 4).Observe(5)
	b.Histogram("z", 4).Observe(3)
	b.Counter("a").Add(1)
	b.Counter("b").Add(2)

	sa, sb := a.Snapshot(), b.Snapshot()
	ja, _ := json.Marshal(sa)
	jb, _ := json.Marshal(sb)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("snapshots differ by registration order:\n%s\n%s", ja, jb)
	}
	if sa.Counters[0].Name != "a" || sa.Hists[0].Name != "y" {
		t.Fatalf("snapshot not name-sorted: %+v", sa)
	}
}

// TestChromeTraceShape checks that the exporter's output is valid JSON
// in the Chrome trace_event array format with properly paired spans.
func TestChromeTraceShape(t *testing.T) {
	r := New(16)
	var tick sim.Time
	r.SetClock(func() sim.Time { return tick })
	cache := r.Component("cache0")
	ctrl := r.Component("ctrl0")

	tick = 10
	r.Begin(cache, "ref read", 7)
	r.AsyncBegin(ctrl, "txn Request", 7)
	tick = 12
	r.Emit(ctrl, "dir to Present1", 7, 0)
	tick = 20
	r.AsyncEnd(ctrl, "txn Request", 7)
	r.End(cache, "ref read", 7)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r, Filter{}); err != nil {
		t.Fatalf("export: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []map[string]any
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	var b, e, ab, ae, i, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "B":
			b++
		case "E":
			e++
		case "b":
			ab++
		case "e":
			ae++
		case "i":
			i++
		case "M":
			meta++
		}
	}
	if b != 1 || e != 1 || ab != 1 || ae != 1 || i != 1 {
		t.Fatalf("event mix B=%d E=%d b=%d e=%d i=%d", b, e, ab, ae, i)
	}
	if meta != 4 { // thread_name + thread_sort_index per component
		t.Fatalf("metadata events = %d, want 4", meta)
	}
	if !strings.Contains(buf.String(), `"block":7`) {
		t.Fatalf("block argument missing:\n%s", buf.String())
	}
}

func TestChromeTraceFilters(t *testing.T) {
	build := func() *Recorder {
		r := New(16)
		var tick sim.Time
		r.SetClock(func() sim.Time { return tick })
		c0 := r.Component("cache0")
		c1 := r.Component("cache1")
		tick = 5
		r.Emit(c0, "a", 1, 0)
		tick = 15
		r.Emit(c1, "b", 2, 0)
		tick = 25
		r.Emit(c0, "c", 0, 0)
		return r
	}
	count := func(f Filter) int {
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, build(), f); err != nil {
			t.Fatalf("export: %v", err)
		}
		var doc struct{ TraceEvents []map[string]any }
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("invalid JSON: %v", err)
		}
		n := 0
		for _, ev := range doc.TraceEvents {
			if ev["ph"] == "i" {
				n++
			}
		}
		return n
	}
	if got := count(Filter{}); got != 3 {
		t.Fatalf("no filter kept %d events, want 3", got)
	}
	if got := count(Filter{Components: []string{"cache1"}}); got != 1 {
		t.Fatalf("component filter kept %d events, want 1", got)
	}
	if got := count(Filter{HasBlock: true, Block: 0}); got != 1 {
		t.Fatalf("block-0 filter kept %d events, want 1", got)
	}
	if got := count(Filter{From: 10, To: 20}); got != 1 {
		t.Fatalf("window filter kept %d events, want 1", got)
	}
	if got := count(Filter{From: 10}); got != 2 {
		t.Fatalf("open-ended window kept %d events, want 2", got)
	}
}

func TestChromeTraceDeterministicBytes(t *testing.T) {
	export := func() []byte {
		r := New(32)
		var tick sim.Time
		r.SetClock(func() sim.Time { return tick })
		c := r.Component("ctrl0")
		for i := 0; i < 10; i++ {
			tick = sim.Time(i * 3)
			r.Emit(c, "dir to PresentM", int64(i), int64(i%2))
		}
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, r, Filter{}); err != nil {
			t.Fatalf("export: %v", err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(export(), export()) {
		t.Fatalf("identical recordings exported different bytes")
	}
}

func TestKernelProfile(t *testing.T) {
	r := New(0)
	p := NewKernelProfile(r)
	p.BeforeEvent(10)
	p.AfterEvent(10)
	p.BeforeEvent(13)
	p.AfterEvent(13)
	p.BeforeEvent(13)
	s := r.Snapshot()
	if v, _ := s.Counter("kernel/events"); v != 3 {
		t.Fatalf("kernel/events = %d, want 3", v)
	}
	h, _ := s.Hist("kernel/event_gap_cycles")
	if h.Count != 2 || h.Sum != 3 || h.Max != 3 {
		t.Fatalf("gap histogram count %d sum %d max %d, want 2/3/3", h.Count, h.Sum, h.Max)
	}
}

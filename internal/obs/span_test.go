package obs

import (
	"strings"
	"testing"
)

// TestSpanNilSafety pins the disabled instrument: every span entry
// point on a nil recorder is a no-op, and Spans on a span-less or nil
// recorder hands out nil.
func TestSpanNilSafety(t *testing.T) {
	var sp *SpanRecorder
	sp.Start(0, ClassReadMiss, 1)
	sp.Mark(0, PhaseMemory)
	sp.Finish(0)
	if sp.Finished() != nil || sp.Truncated() != 0 {
		t.Error("nil span recorder holds state")
	}
	var r *Recorder
	if r.Spans() != nil || r.EnableSpans(0) != nil {
		t.Error("nil recorder handed out a span recorder")
	}
	if New(0).Spans() != nil {
		t.Error("Spans() non-nil before EnableSpans")
	}
}

// TestSpanTelescoping drives a synthetic span through a fake clock and
// checks that every interval lands in exactly one phase and the sums
// reconcile.
func TestSpanTelescoping(t *testing.T) {
	r := New(0)
	sp := r.EnableSpans(8)

	r.SetTime(10)
	sp.Start(0, ClassReadMiss, 42)
	r.SetTime(13)
	sp.Mark(0, PhaseReqTransit) // 3
	r.SetTime(18)
	sp.Mark(0, PhaseQueue) // 5
	r.SetTime(38)
	sp.Mark(0, PhaseMemory) // 20
	r.SetTime(41)
	sp.Mark(0, PhaseDataReturn) // 3
	r.SetTime(42)
	sp.Finish(0) // 1 → cache

	m, ok := SpanMatrixFrom(r.Snapshot())
	if !ok {
		t.Fatal("no span series in snapshot")
	}
	cl := m.Classes[ClassReadMiss]
	if cl.Class != "read_miss" {
		t.Fatalf("class order broken: %q at index %d", cl.Class, ClassReadMiss)
	}
	want := map[string]uint64{
		"cache": 1, "req_transit": 3, "queue": 5, "memory": 20, "data_return": 3,
	}
	var sum uint64
	for _, ph := range cl.Phases {
		if w, ok := want[ph.Phase]; ok {
			if ph.Hist.Sum != w || ph.Hist.Count != 1 {
				t.Errorf("%s: sum=%d count=%d, want sum=%d count=1", ph.Phase, ph.Hist.Sum, ph.Hist.Count, w)
			}
		} else if ph.Hist.Count != 0 {
			t.Errorf("%s: unexpected count %d", ph.Phase, ph.Hist.Count)
		}
		sum += ph.Hist.Sum
	}
	if cl.E2E.Sum != 32 || cl.E2E.Count != 1 {
		t.Errorf("e2e sum=%d count=%d, want 32/1", cl.E2E.Sum, cl.E2E.Count)
	}
	if sum != cl.E2E.Sum {
		t.Errorf("Σ phases = %d, e2e = %d", sum, cl.E2E.Sum)
	}

	spans := sp.Finished()
	if len(spans) != 1 {
		t.Fatalf("retained %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Txn != 0 || s.Cache != 0 || s.Block != 42 || s.Start != 10 || s.End != 42 {
		t.Errorf("span identity wrong: %+v", s)
	}
	if len(s.Segs) != 5 {
		t.Fatalf("%d segments, want 5", len(s.Segs))
	}
}

// TestSpanRepeatedMarks pins that a phase can be charged more than once
// per span (a §3.2.4 denial retries through req_transit and queue
// again) and the durations accumulate.
func TestSpanRepeatedMarks(t *testing.T) {
	r := New(0)
	sp := r.EnableSpans(0)

	sp.Start(1, ClassWriteUpgrade, 7)
	r.SetTime(2)
	sp.Mark(1, PhaseReqTransit)
	r.SetTime(5)
	sp.Mark(1, PhaseDataReturn) // denial returns
	r.SetTime(9)
	sp.Mark(1, PhaseReqTransit) // retry transit
	r.SetTime(20)
	sp.Finish(1)

	m, _ := SpanMatrixFrom(r.Snapshot())
	cl := m.Classes[ClassWriteUpgrade]
	for _, ph := range cl.Phases {
		switch ph.Phase {
		case "req_transit":
			if ph.Hist.Sum != 6 || ph.Hist.Count != 1 {
				t.Errorf("req_transit sum=%d count=%d, want 6/1 (one observation per span)", ph.Hist.Sum, ph.Hist.Count)
			}
		case "data_return":
			if ph.Hist.Sum != 3 {
				t.Errorf("data_return sum=%d, want 3", ph.Hist.Sum)
			}
		case "cache":
			if ph.Hist.Sum != 11 {
				t.Errorf("cache sum=%d, want 11", ph.Hist.Sum)
			}
		}
	}
	if cl.E2E.Sum != 20 {
		t.Errorf("e2e sum=%d, want 20", cl.E2E.Sum)
	}
}

// TestSpanMarksDropped pins the guards: marks for caches without an
// open span, negative (DMA) indices, and out-of-range indices are all
// silently dropped.
func TestSpanMarksDropped(t *testing.T) {
	r := New(0)
	sp := r.EnableSpans(0)
	sp.Mark(-1, PhaseMemory)
	sp.Mark(0, PhaseMemory)  // no span open
	sp.Mark(99, PhaseMemory) // never seen
	sp.Finish(0)
	sp.Finish(-1)
	m, _ := SpanMatrixFrom(r.Snapshot())
	if m.Refs() != 0 {
		t.Errorf("dropped marks produced %d references", m.Refs())
	}
}

// TestSpanEnableIdempotent pins that a second EnableSpans returns the
// same recorder (and cannot shrink or grow retention).
func TestSpanEnableIdempotent(t *testing.T) {
	r := New(0)
	a := r.EnableSpans(4)
	b := r.EnableSpans(400)
	if a != b {
		t.Error("EnableSpans not idempotent")
	}
	if r.Spans() != a {
		t.Error("Spans() disagrees with EnableSpans")
	}
}

// TestSpanNames pins the String spellings the series names are built
// from — renames would silently orphan stored campaign data.
func TestSpanNames(t *testing.T) {
	wantClasses := []string{"read_hit", "read_miss", "write_hit", "write_miss", "write_upgrade"}
	for c := 0; c < NumRefClasses; c++ {
		if got := RefClass(c).String(); got != wantClasses[c] {
			t.Errorf("class %d = %q, want %q", c, got, wantClasses[c])
		}
	}
	wantPhases := []string{"cache", "replacement", "req_transit", "queue", "memory", "writeback", "data_return"}
	for p := 0; p < NumPhases; p++ {
		if got := Phase(p).String(); got != wantPhases[p] {
			t.Errorf("phase %d = %q, want %q", p, got, wantPhases[p])
		}
	}
}

// TestSpanMatrixWriteText smoke-tests the renderer: populated classes
// appear with their phases, empty classes are omitted.
func TestSpanMatrixWriteText(t *testing.T) {
	r := New(0)
	sp := r.EnableSpans(0)
	sp.Start(0, ClassReadMiss, 1)
	r.SetTime(30)
	sp.Mark(0, PhaseMemory)
	r.SetTime(31)
	sp.Finish(0)

	m, _ := SpanMatrixFrom(r.Snapshot())
	var b strings.Builder
	if err := m.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"read_miss", "memory", "cache", "share"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered matrix missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "write_miss") {
		t.Errorf("empty class rendered:\n%s", out)
	}
}

// TestSpanFilter pins the trace filter semantics, including the
// txn-0-vs-unset distinction.
func TestSpanFilter(t *testing.T) {
	s := SpanData{Txn: 0, Class: ClassReadMiss, Block: 5}
	if !NewSpanFilter().keep(s) {
		t.Error("zero filter dropped a span")
	}
	if f := (SpanFilter{Txn: 0}); !f.keep(s) {
		t.Error("Txn: 0 should keep txn 0")
	}
	if f := (SpanFilter{Txn: 1}); f.keep(s) {
		t.Error("Txn: 1 kept txn 0")
	}
	if f := (SpanFilter{Txn: -1, Class: "read_miss"}); !f.keep(s) {
		t.Error("class filter dropped a match")
	}
	if f := (SpanFilter{Txn: -1, Class: "write_miss"}); f.keep(s) {
		t.Error("class filter kept a mismatch")
	}
	if f := (SpanFilter{Txn: -1, HasBlock: true, Block: 5}); !f.keep(s) {
		t.Error("block filter dropped a match")
	}
	if f := (SpanFilter{Txn: -1, HasBlock: true, Block: 6}); f.keep(s) {
		t.Error("block filter kept a mismatch")
	}
}

// BenchmarkSpans times the span recorder's per-reference work on the
// paper-8p-shaped timeline the way the machine drives it: the cache
// agent's Start at issue, a Mark at each phase boundary, Finish at
// retirement, each at the time the kernel hook stamped. One op is one
// reference.
func BenchmarkSpans(b *testing.B) {
	tl := paperTimeline(1 << 16)
	r := New(0)
	sp := r.EnableSpans(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := &tl[i&(len(tl)-1)]
		r.SetTime(t.at)
		sp.Start(t.proc, t.class, int64(t.block))
		for _, m := range t.marks {
			r.SetTime(m.at)
			sp.Mark(t.proc, m.ph)
		}
		r.SetTime(t.done)
		sp.Finish(t.proc)
	}
}

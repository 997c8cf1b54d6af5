package obs

import (
	"reflect"
	"testing"

	"twobit/internal/sim"
)

func TestNilTimeSeriesIsSafe(t *testing.T) {
	var r *Recorder
	ts := r.EnableWindows(16)
	if ts != nil {
		t.Fatalf("nil recorder EnableWindows = %v, want nil", ts)
	}
	if r.Windows() != nil {
		t.Fatalf("nil recorder Windows() != nil")
	}
	s := ts.Series("x", SeriesSum)
	s.Add(3)
	s.Inc()
	s.Observe(9)
	s.GaugeAdd(-1)
	if s.Name() != "" || ts.Width() != 0 {
		t.Fatalf("nil series leaked state")
	}
	var c *ContentionRecorder
	c.Ref(1)
	c.Invalidation(2)
	c.Write(3, 0, 1)
	if r.EnableContention(4) != nil || r.Contention() != nil {
		t.Fatalf("nil recorder enabled contention")
	}
}

func TestWindowsOffByDefault(t *testing.T) {
	r := New(0)
	if r.Windows() != nil || r.Contention() != nil {
		t.Fatalf("windows/contention enabled without opt-in")
	}
	s := r.Snapshot()
	if len(s.Series) != 0 || len(s.TopBlocks) != 0 || len(s.TopInvBlocks) != 0 || len(s.FalseSharing) != 0 {
		t.Fatalf("snapshot carries windowed state without opt-in: %+v", s)
	}
}

func TestTimeSeriesWindowing(t *testing.T) {
	r := New(0)
	set := r.SetTime
	ts := r.EnableWindows(10)
	if again := r.EnableWindows(999); again != ts {
		t.Fatalf("EnableWindows not idempotent")
	}
	if ts.Width() != 10 {
		t.Fatalf("Width = %d, want 10", ts.Width())
	}

	sum := ts.Series("sys/misses", SeriesSum)
	peak := ts.Series("ctrl0/queue_depth", SeriesMax)
	if same := ts.Series("sys/misses", SeriesSum); same != sum {
		t.Fatalf("series registration not idempotent")
	}

	set(0)
	sum.Add(2)
	peak.Observe(3)
	set(9)
	sum.Inc()
	peak.Observe(1)
	set(25) // window 2; window 1 stays empty
	sum.Add(5)
	peak.Observe(7)

	s := r.Snapshot()
	sv, ok := s.SeriesNamed("sys/misses")
	if !ok {
		t.Fatalf("sys/misses missing from snapshot")
	}
	if want := []uint64{3, 0, 5}; !reflect.DeepEqual(sv.Values, want) {
		t.Fatalf("sum windows = %v, want %v", sv.Values, want)
	}
	if sv.Total() != 8 {
		t.Fatalf("Total = %d, want 8", sv.Total())
	}
	pv, _ := s.SeriesNamed("ctrl0/queue_depth")
	if want := []uint64{3, 0, 7}; !reflect.DeepEqual(pv.Values, want) {
		t.Fatalf("max windows = %v, want %v", pv.Values, want)
	}
}

func TestGaugeForwardFills(t *testing.T) {
	r := New(0)
	set := r.SetTime
	ts := r.EnableWindows(10)
	g := ts.Series("dir/absent", SeriesGauge)

	set(0)
	g.GaugeAdd(8) // level 8 in window 0
	set(15)
	g.GaugeAdd(-3) // level 5 in window 1
	set(48)        // snapshot in window 4: windows 2..4 forward-fill at 5
	sv, _ := r.Snapshot().SeriesNamed("dir/absent")
	if want := []uint64{8, 5, 5, 5, 5}; !reflect.DeepEqual(sv.Values, want) {
		t.Fatalf("gauge windows = %v, want %v", sv.Values, want)
	}
}

func TestSeriesKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a series with a different kind did not panic")
		}
	}()
	ts := New(0).EnableWindows(10)
	ts.Series("x", SeriesSum)
	ts.Series("x", SeriesMax)
}

func seriesSnap(width uint64, fill func(set func(sim.Time), ts *TSRecorder)) Snapshot {
	r := New(0)
	set := r.SetTime
	fill(set, r.EnableWindows(width))
	return r.Snapshot()
}

func TestSeriesMergeCommutative(t *testing.T) {
	a := seriesSnap(10, func(set func(sim.Time), ts *TSRecorder) {
		s := ts.Series("m", SeriesSum)
		p := ts.Series("q", SeriesMax)
		set(5)
		s.Add(2)
		p.Observe(4)
		set(12)
		s.Add(1)
	})
	b := seriesSnap(10, func(set func(sim.Time), ts *TSRecorder) {
		s := ts.Series("m", SeriesSum)
		p := ts.Series("q", SeriesMax)
		set(3)
		s.Add(7)
		p.Observe(9)
		set(27)
		p.Observe(2)
	})
	ab, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Merge(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ab, ba) {
		t.Fatalf("series merge not commutative:\n%+v\n%+v", ab, ba)
	}
	m, _ := ab.SeriesNamed("m")
	if want := []uint64{9, 1}; !reflect.DeepEqual(m.Values, want) {
		t.Fatalf("merged sum = %v, want %v", m.Values, want)
	}
	q, _ := ab.SeriesNamed("q")
	if want := []uint64{9, 0, 2}; !reflect.DeepEqual(q.Values, want) {
		t.Fatalf("merged max = %v, want %v", q.Values, want)
	}
}

func TestSeriesMergeAssociative(t *testing.T) {
	mk := func(at sim.Time, n uint64) Snapshot {
		return seriesSnap(10, func(set func(sim.Time), ts *TSRecorder) {
			set(at)
			ts.Series("m", SeriesSum).Add(n)
			ts.Series("g", SeriesGauge).GaugeAdd(int64(n))
		})
	}
	a, b, c := mk(0, 1), mk(15, 2), mk(33, 4)
	ab, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	abc1, err := Merge(ab, c)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := Merge(b, c)
	if err != nil {
		t.Fatal(err)
	}
	abc2, err := Merge(a, bc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(abc1, abc2) {
		t.Fatalf("series merge not associative:\n%+v\n%+v", abc1, abc2)
	}
}

func TestSeriesMergeAllOrderIndependent(t *testing.T) {
	mk := func(at sim.Time, n uint64) Snapshot {
		return seriesSnap(10, func(set func(sim.Time), ts *TSRecorder) {
			set(at)
			ts.Series("m", SeriesSum).Add(n)
		})
	}
	snaps := []Snapshot{mk(0, 1), mk(25, 2), mk(11, 4), mk(47, 8)}
	ref, err := MergeAll(snaps...)
	if err != nil {
		t.Fatal(err)
	}
	perms := [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}}
	for _, p := range perms {
		ordered := make([]Snapshot, len(p))
		for i, j := range p {
			ordered[i] = snaps[j]
		}
		got, err := MergeAll(ordered...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("merge order %v changed the aggregate", p)
		}
	}
	m, _ := ref.SeriesNamed("m")
	if want := []uint64{1, 4, 2, 0, 8}; !reflect.DeepEqual(m.Values, want) {
		t.Fatalf("aggregate windows = %v, want %v", m.Values, want)
	}
}

func TestSeriesMergeMismatchErrors(t *testing.T) {
	a := seriesSnap(10, func(set func(sim.Time), ts *TSRecorder) {
		ts.Series("m", SeriesSum).Add(1)
	})
	bWidth := seriesSnap(20, func(set func(sim.Time), ts *TSRecorder) {
		ts.Series("m", SeriesSum).Add(1)
	})
	if _, err := Merge(a, bWidth); err == nil {
		t.Fatalf("merging series with different window widths did not error")
	}
	bKind := seriesSnap(10, func(set func(sim.Time), ts *TSRecorder) {
		ts.Series("m", SeriesMax).Observe(1)
	})
	if _, err := Merge(a, bKind); err == nil {
		t.Fatalf("merging series with different kinds did not error")
	}
}

func TestContentionProfile(t *testing.T) {
	r := New(0)
	c := r.EnableContention(4)
	if again := r.EnableContention(99); again != c {
		t.Fatalf("EnableContention not idempotent")
	}
	for i := 0; i < 5; i++ {
		c.Ref(7)
	}
	c.Ref(3)
	c.Invalidation(7)
	c.Invalidation(7)
	// Proc 0 and proc 1 ping-pong on distinct words of block 9: false
	// sharing. Block 11 sees one proc only: not false sharing.
	c.Write(9, 0, 0)
	c.Write(9, 1, 1)
	c.Write(9, 0, 0)
	c.Write(11, 0, 0)
	c.Write(11, 1, 0)

	s := r.Snapshot()
	if len(s.TopBlocks) != 2 || s.TopBlocks[0] != (BlockStat{Block: 7, Count: 5}) {
		t.Fatalf("TopBlocks = %+v", s.TopBlocks)
	}
	if len(s.TopInvBlocks) != 1 || s.TopInvBlocks[0] != (BlockStat{Block: 7, Count: 2}) {
		t.Fatalf("TopInvBlocks = %+v", s.TopInvBlocks)
	}
	if len(s.FalseSharing) != 2 {
		t.Fatalf("FalseSharing = %+v", s.FalseSharing)
	}
	hot := s.FalseSharing[0]
	if hot.Block != 9 || hot.Interleavings != 2 || !hot.FalseShared() {
		t.Fatalf("block 9 profile = %+v", hot)
	}
	if s.FalseSharing[1].FalseShared() {
		t.Fatalf("block 11 flagged as false-shared: %+v", s.FalseSharing[1])
	}
}

func TestContentionMergeOrderIndependent(t *testing.T) {
	mk := func(blocks ...uint64) Snapshot {
		r := New(0)
		c := r.EnableContention(4)
		for _, b := range blocks {
			c.Ref(b)
			c.Invalidation(b)
			c.Write(b, int(b%3), int(b%2))
		}
		return r.Snapshot()
	}
	snaps := []Snapshot{mk(1, 2, 1), mk(2, 3), mk(1, 4, 4)}
	ref, err := MergeAll(snaps...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MergeAll(snaps[2], snaps[0], snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("contention merge order-dependent:\n%+v\n%+v", got, ref)
	}
	if ref.TopBlocks[0].Block != 1 || ref.TopBlocks[0].Count != 3 {
		t.Fatalf("merged TopBlocks = %+v", ref.TopBlocks)
	}
}

func TestDetectStorms(t *testing.T) {
	sv := SeriesValue{Name: "sys/invalidations", Kind: SeriesSum, Width: 10,
		Values: []uint64{1, 0, 2, 40, 1, 38}}
	storms := DetectStorms(sv, 10, 2)
	want := []Storm{{Window: 3, Value: 40}, {Window: 5, Value: 38}}
	if !reflect.DeepEqual(storms, want) {
		t.Fatalf("DetectStorms = %+v, want %+v", storms, want)
	}
	if got := DetectStorms(SeriesValue{}, 1, 2); got != nil {
		t.Fatalf("empty series produced storms: %+v", got)
	}
}

// BenchmarkWindows times the windowed series' per-reference work on the
// paper-8p-shaped timeline at the default width, with the touches the
// two-bit machine makes: every reference bumps sys/refs; a miss or an
// upgrade bumps its own series, sends a request and a reply (net/msgs,
// net/busy_cycles), is one command in its controller's queue and moves
// its block between two census gauges. One op is one reference.
func BenchmarkWindows(b *testing.B) {
	tl := paperTimeline(1 << 16)
	r := New(0)
	ts := r.EnableWindows(DefaultWindowWidth)
	refs := ts.Series("sys/refs", SeriesSum)
	misses := ts.Series("sys/misses", SeriesSum)
	upgrades := ts.Series("sys/upgrades", SeriesSum)
	msgs := ts.Series("net/msgs", SeriesSum)
	busy := ts.Series("net/busy_cycles", SeriesSum)
	depth := ts.Series("ctrl0/queue_depth", SeriesMax)
	var census [4]*TimeSeries
	for s, name := range DirStateSeriesNames {
		census[s] = ts.Series(name, SeriesGauge)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := &tl[i&(len(tl)-1)]
		// The timeline wraps to time 0 every 2¹⁶ references, into
		// windows already grown: one division per wrap.
		r.SetTime(t.at)
		refs.Inc()
		switch t.class {
		case ClassReadHit, ClassWriteHit:
			continue
		case ClassWriteUpgrade:
			upgrades.Inc()
		default:
			misses.Inc()
		}
		msgs.Add(2)
		busy.Add(8)
		depth.Observe(uint64(1 + i&1))
		from, to := 1+i&1, 2+i&1
		census[from].GaugeAdd(-1)
		census[to].GaugeAdd(1)
	}
}

// TestWindowFollowsTime: the window index a sample lands in is always
// the one its time divides to — within the last sample's window, across
// it, on its edges and backwards (a recorder whose machine restarts at
// time 0).
func TestWindowFollowsTime(t *testing.T) {
	r := New(0)
	ts := r.EnableWindows(8)
	s := ts.Series("sys/refs", SeriesSum)
	want := map[int]uint64{}
	for _, at := range []sim.Time{0, 7, 8, 15, 16, 3, 40, 39, 39, 0, 63, 64, 8} {
		r.SetTime(at)
		s.Inc()
		want[int(at/8)]++
	}
	sv, _ := r.Snapshot().SeriesNamed("sys/refs")
	for w, n := range want {
		if w >= len(sv.Values) || sv.Values[w] != n {
			t.Fatalf("window %d: got %v, want %d", w, sv.Values, n)
		}
	}
	if sv.Total() != 13 {
		t.Fatalf("Total = %d, want 13", sv.Total())
	}
}

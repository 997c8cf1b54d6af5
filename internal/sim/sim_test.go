package sim

import (
	"container/heap"
	"testing"
	"testing/quick"

	"twobit/internal/rng"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	var k Kernel
	var order []int
	k.At(30, func() { order = append(order, 3) })
	k.At(10, func() { order = append(order, 1) })
	k.At(20, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order %v, want [1 2 3]", order)
	}
	if k.Now() != 30 {
		t.Fatalf("clock = %d, want 30", k.Now())
	}
}

func TestTiesBreakBySchedulingOrder(t *testing.T) {
	var k Kernel
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tied events ran as %v, want FIFO", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var k Kernel
	var hits []Time
	k.At(1, func() {
		hits = append(hits, k.Now())
		k.After(4, func() { hits = append(hits, k.Now()) })
	})
	k.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 5 {
		t.Fatalf("hits = %v, want [1 5]", hits)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var k Kernel
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	k.Run()
}

func TestNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil event did not panic")
		}
	}()
	var k Kernel
	k.At(0, nil)
}

func TestRunUntil(t *testing.T) {
	var k Kernel
	ran := map[Time]bool{}
	for _, tm := range []Time{1, 5, 10, 15} {
		tm := tm
		k.At(tm, func() { ran[tm] = true })
	}
	k.RunUntil(10)
	if !ran[1] || !ran[5] || !ran[10] || ran[15] {
		t.Fatalf("RunUntil(10) ran %v", ran)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	k.Run()
	if !ran[15] || k.Now() != 15 {
		t.Fatalf("final run incomplete: ran=%v now=%d", ran, k.Now())
	}
}

func TestRunFor(t *testing.T) {
	var k Kernel
	count := 0
	k.At(3, func() {
		count++
		k.After(3, func() { count++ })
		k.After(30, func() { count++ })
	})
	k.RunFor(10)
	if count != 2 {
		t.Fatalf("count = %d after RunFor(10), want 2", count)
	}
}

func TestProcessedCount(t *testing.T) {
	var k Kernel
	for i := 0; i < 25; i++ {
		k.At(Time(i), func() {})
	}
	k.Run()
	if k.Processed() != 25 {
		t.Fatalf("Processed() = %d, want 25", k.Processed())
	}
}

// Property: for any random schedule, events execute in nondecreasing time
// order and the kernel drains completely.
func TestPropertyOrdering(t *testing.T) {
	r := rng.New(7, 1)
	if err := quick.Check(func(seed uint32, nRaw uint8) bool {
		n := int(nRaw)%100 + 1
		var k Kernel
		var times []Time
		for i := 0; i < n; i++ {
			tm := Time(r.Intn(50))
			k.At(tm, func() { times = append(times, k.Now()) })
		}
		k.Run()
		if len(times) != n {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return k.Pending() == 0
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// oracleEvent and oracleHeap are the kernel's original event queue — the
// exact container/heap implementation the 4-ary heap replaced — kept here
// as the ordering oracle: both orders are total on the unique (at, seq)
// key, so the replacement must pop the identical sequence under any
// schedule.
type oracleEvent struct {
	at  Time
	seq uint64
}

type oracleHeap []oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(oracleEvent)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestKernelOrderOracle drives the kernel and the original container/heap
// implementation through randomized adversarial schedules — duplicate
// times, interleaved pops and pushes, bursts of ties — and demands the
// identical pop order, element for element. This is the determinism proof
// for the heap swap: byte-identical simulation results follow from
// identical event order.
func TestKernelOrderOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("property test; scripts/check.sh runs it explicitly")
	}
	r := rng.New(0xC0FFEE, 9)
	for round := 0; round < 200; round++ {
		var k Kernel
		oracle := &oracleHeap{}
		var got []uint64 // sequence numbers in kernel execution order
		seq := uint64(0)

		// schedule pairs every kernel event with an oracle entry carrying
		// the same (at, seq) key; seq mirrors the kernel's internal counter
		// because every At goes through here.
		var schedule func(at Time)
		schedule = func(at Time) {
			s := seq
			seq++
			k.At(at, func() { got = append(got, s) })
			heap.Push(oracle, oracleEvent{at: at, seq: s})
		}

		// A burst clustered on few distinct times, so ties dominate; a
		// quarter of the events schedule a nested follow-up relative to the
		// clock while the kernel is draining.
		burst := r.Intn(100) + 1
		for i := 0; i < burst; i++ {
			at := Time(r.Intn(8))
			if r.Intn(4) == 0 {
				d := Time(r.Intn(4))
				s := seq
				seq++
				k.At(at, func() {
					got = append(got, s)
					schedule(k.Now() + d)
				})
				heap.Push(oracle, oracleEvent{at: at, seq: s})
			} else {
				schedule(at)
			}
		}
		k.Run()

		if got := len(got); got != oracle.Len() {
			t.Fatalf("round %d: kernel ran %d events, oracle holds %d", round, got, oracle.Len())
		}
		for i := range got {
			w := heap.Pop(oracle).(oracleEvent)
			if got[i] != w.seq {
				t.Fatalf("round %d pop %d: kernel ran seq %d, container/heap oracle says %d",
					round, i, got[i], w.seq)
			}
		}
	}
}

// TestKernelOrderOracleInterleaved pushes and pops in random interleaving
// against the oracle, comparing the root before every pop.
func TestKernelOrderOracleInterleaved(t *testing.T) {
	r := rng.New(31337, 4)
	var k Kernel
	oracle := &oracleHeap{}
	var popped []Time
	live := 0
	for op := 0; op < 5000; op++ {
		if live == 0 || r.Intn(3) > 0 {
			at := k.Now() + Time(r.Intn(16))
			k.At(at, func() { popped = append(popped, k.Now()) })
			heap.Push(oracle, oracleEvent{at: at, seq: k.seq - 1})
			live++
		} else {
			w := heap.Pop(oracle).(oracleEvent)
			if !k.Step() {
				t.Fatal("kernel empty while oracle is not")
			}
			last := popped[len(popped)-1]
			if last != w.at {
				t.Fatalf("op %d: kernel popped t=%d, oracle t=%d (seq %d)", op, last, w.at, w.seq)
			}
			live--
		}
	}
}

type recordingCaller struct {
	calls [][2]uint64
}

func (c *recordingCaller) Call(a0, a1 uint64) { c.calls = append(c.calls, [2]uint64{a0, a1}) }

func TestAtCallRunsPooledEvents(t *testing.T) {
	var k Kernel
	var c recordingCaller
	k.AtCall(10, &c, 1, 2)
	k.AtCall(5, &c, 3, 4)
	k.AfterCall(5, &c, 5, 6) // also at t=5, after seq of the AtCall above
	k.Run()
	want := [][2]uint64{{3, 4}, {5, 6}, {1, 2}}
	if len(c.calls) != len(want) {
		t.Fatalf("calls = %v, want %v", c.calls, want)
	}
	for i := range want {
		if c.calls[i] != want[i] {
			t.Fatalf("calls = %v, want %v", c.calls, want)
		}
	}
	if k.Processed() != 3 {
		t.Fatalf("Processed() = %d, want 3", k.Processed())
	}
}

func TestAtCallNilCallerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil caller did not panic")
		}
	}()
	var k Kernel
	k.AtCall(0, nil, 0, 0)
}

// TestAtCallAndAtShareOneOrder verifies the two scheduling forms live in
// one (at, seq) order, not two queues.
func TestAtCallAndAtShareOneOrder(t *testing.T) {
	var k Kernel
	var order []int
	var c recordingCaller
	k.At(3, func() { order = append(order, 0) })
	k.AtCall(3, &c, 0, 0)
	k.At(3, func() { order = append(order, 2) })
	k.Run()
	if len(c.calls) != 1 || len(order) != 2 || order[0] != 0 || order[1] != 2 {
		t.Fatalf("mixed-form tie order wrong: funcs %v, calls %v", order, c.calls)
	}
}

func TestResetClearsStateKeepsCapacity(t *testing.T) {
	var k Kernel
	for i := 0; i < 100; i++ {
		k.At(Time(i), func() {})
	}
	k.RunUntil(10)
	capBefore := cap(k.events)
	k.Reset()
	if k.Now() != 0 || k.Pending() != 0 || k.Processed() != 0 || k.seq != 0 {
		t.Fatalf("Reset left state: now=%d pending=%d processed=%d seq=%d",
			k.Now(), k.Pending(), k.Processed(), k.seq)
	}
	if cap(k.events) != capBefore {
		t.Fatalf("Reset dropped capacity: %d, want %d", cap(k.events), capBefore)
	}
	// A reused kernel behaves exactly like a fresh one.
	var order []int
	k.At(2, func() { order = append(order, 2) })
	k.At(1, func() { order = append(order, 1) })
	k.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("post-Reset order %v, want [1 2]", order)
	}
}

// TestResetIdenticalToFresh runs the same randomized schedule on a fresh
// kernel and on a heavily used then Reset kernel, and requires identical
// execution traces — no state may leak through the reused event storage.
func TestResetIdenticalToFresh(t *testing.T) {
	script := func(k *Kernel) []Time {
		r := rng.New(99, 7)
		var trace []Time
		for i := 0; i < 500; i++ {
			k.At(Time(r.Intn(64)), func() { trace = append(trace, k.Now()) })
		}
		k.Run()
		return trace
	}
	var fresh Kernel
	want := script(&fresh)

	var used Kernel
	r := rng.New(1, 2)
	for i := 0; i < 1000; i++ {
		used.At(Time(r.Intn(32)), func() {})
	}
	used.RunUntil(16) // leave events pending, clock advanced
	used.Reset()
	got := script(&used)

	if len(got) != len(want) {
		t.Fatalf("trace lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace diverges at %d: fresh t=%d, reused t=%d", i, want[i], got[i])
		}
	}
}

// sumCaller is a pointer-shaped event target: scheduling it through
// AtCall converts it to the Caller interface without boxing.
type sumCaller struct{ sink uint64 }

func (c *sumCaller) Call(a0, a1 uint64) { c.sink += a0 ^ a1 }

// TestZeroAllocKernel holds the floor every simulated cycle rests on:
// once the event array has reached its high-water mark, scheduling a
// batch of pooled events with clustered timestamps (real sift work and
// tie-breaks) and draining it to empty allocates nothing.
func TestZeroAllocKernel(t *testing.T) {
	if RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const batch = 64
	var k Kernel
	var c sumCaller
	run := func() {
		now := k.Now()
		for j := 0; j < batch; j++ {
			k.AtCall(now+Time(j%8), &c, uint64(j), 1)
		}
		for k.Step() {
		}
	}
	run() // grow the event array to its high-water mark
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("kernel schedule+drain allocates %v per %d-event batch, want 0", allocs, batch)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var k Kernel
		for j := 0; j < 100; j++ {
			k.At(Time(j%10), func() {})
		}
		k.Run()
	}
}

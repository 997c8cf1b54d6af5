package sim

import (
	"bytes"
	"container/heap"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"twobit/internal/rng"
)

// fnCaller adapts a closure to a Caller, so a test can schedule one
// through AtCall. The kernel itself takes only Callers: a closure per
// event is the allocation its hot paths must not pay.
type fnCaller func()

func (f fnCaller) Call(_, _ uint64) { f() }

func TestEventsRunInTimeOrder(t *testing.T) {
	var k Kernel
	var order []int
	k.AtCall(30, fnCaller(func() { order = append(order, 3) }), 0, 0)
	k.AtCall(10, fnCaller(func() { order = append(order, 1) }), 0, 0)
	k.AtCall(20, fnCaller(func() { order = append(order, 2) }), 0, 0)
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
		k.AtCall(5, fnCaller(func() { order = append(order, i) }), 0, 0)
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
	k.AtCall(1, fnCaller(func() {
		hits = append(hits, k.Now())
		k.AfterCall(4, fnCaller(func() { hits = append(hits, k.Now()) }), 0, 0)
	}), 0, 0)
	k.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 5 {
		t.Fatalf("hits = %v, want [1 5]", hits)
	}
}

// TestSchedulingInPastPanics: every scheduling form reports a time before
// now — given directly, through a negative delay, or through a delay that
// overflows now+d — with the one "scheduled at … before now" panic.
func TestSchedulingInPastPanics(t *testing.T) {
	var c recordingCaller
	const now = 10
	cases := []struct {
		name     string
		schedule func(k *Kernel)
		at       Time
	}{
		{"At", func(k *Kernel) { k.AtCall(5, fnCaller(func() {}), 0, 0) }, 5},
		{"AtCall", func(k *Kernel) { k.AtCall(5, &c, 0, 0) }, 5},
		{"After/negative", func(k *Kernel) { k.AfterCall(-1, fnCaller(func() {}), 0, 0) }, now - 1},
		{"AfterCall/negative", func(k *Kernel) { k.AfterCall(-1, &c, 0, 0) }, now - 1},
		{"After/overflow", func(k *Kernel) { k.AfterCall(math.MaxInt64, fnCaller(func() {}), 0, 0) }, math.MinInt64 + now - 1},
		{"AfterCall/overflow", func(k *Kernel) { k.AfterCall(math.MaxInt64, &c, 0, 0) }, math.MinInt64 + now - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var k Kernel
			k.AtCall(now, fnCaller(func() {
				defer func() {
					want := fmt.Sprintf("sim: event scheduled at %d before now %d", tc.at, now)
					if got := recover(); got != want {
						t.Errorf("panic = %v, want %q", got, want)
					}
				}()
				tc.schedule(&k)
			}), 0, 0)
			k.Run()
			if k.Pending() != 0 {
				t.Errorf("rejected event left %d pending", k.Pending())
			}
		})
	}
}

func TestNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil event did not panic")
		}
	}()
	var k Kernel
	k.AtCall(0, nil, 0, 0)
}

func TestRunUntil(t *testing.T) {
	var k Kernel
	ran := map[Time]bool{}
	for _, tm := range []Time{1, 5, 10, 15} {
		tm := tm
		k.AtCall(tm, fnCaller(func() { ran[tm] = true }), 0, 0)
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
	k.AtCall(3, fnCaller(func() {
		count++
		k.AfterCall(3, fnCaller(func() { count++ }), 0, 0)
		k.AfterCall(30, fnCaller(func() { count++ }), 0, 0)
	}), 0, 0)
	k.RunFor(10)
	if count != 2 {
		t.Fatalf("count = %d after RunFor(10), want 2", count)
	}
}

func TestProcessedCount(t *testing.T) {
	var k Kernel
	for i := 0; i < 25; i++ {
		k.AtCall(Time(i), fnCaller(func() {}), 0, 0)
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
			k.AtCall(tm, fnCaller(func() { times = append(times, k.Now()) }), 0, 0)
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
// exact container/heap implementation the ring and the 4-ary heap replaced
// — kept here as the ordering oracle: the order is total on the unique
// (at, seq) key, so the replacement must pop the identical sequence under
// any schedule.
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

// mirror drives a Kernel and the oracle through one schedule. Every event
// goes through push, which gives it the sequence number the heap-only
// kernel would have (a test-local counter, not kernel state) and files
// the same (at, seq) key with the oracle. After every operation check
// pops one oracle entry per event the kernel ran and demands the same
// key, element for element, then the same clock and counters. A nested
// event's key follows its parent's, so popping the oracle after the
// kernel ran a whole batch still replays the one legal order.
type mirror struct {
	t         testing.TB
	k         Kernel
	oracle    oracleHeap
	seq       uint64
	ran       []oracleEvent // (k.Now(), seq) of each event run since the last check
	now       Time
	processed uint64
}

// noNest is push's nest argument for an event that schedules nothing.
const noNest = -1

// push schedules an event d cycles from now on both sides; with nest ≥ 0
// it schedules a plain follow-up nest cycles after the moment it runs.
// Sequence parity picks the scheduling form, so both share every queue.
func (m *mirror) push(d, nest Time) {
	s := m.seq
	m.seq++
	at := m.k.Now() + d
	heap.Push(&m.oracle, oracleEvent{at: at, seq: s})
	if s%2 == 0 {
		m.k.AtCall(at, m, s, uint64(nest+1))
	} else {
		m.k.AtCall(at, fnCaller(func() { m.Call(s, uint64(nest+1)) }), 0, 0)
	}
}

// Call implements Caller: a0 is the event's seq, a1 its nest delay plus one.
func (m *mirror) Call(a0, a1 uint64) {
	m.ran = append(m.ran, oracleEvent{at: m.k.Now(), seq: a0})
	if a1 > 0 {
		m.push(Time(a1-1), noNest)
	}
}

func (m *mirror) check(op string) {
	m.t.Helper()
	for i, e := range m.ran {
		if m.oracle.Len() == 0 {
			m.t.Fatalf("%s: kernel ran (t=%d seq=%d), oracle is empty", op, e.at, e.seq)
		}
		if w := heap.Pop(&m.oracle).(oracleEvent); e != w {
			m.t.Fatalf("%s, event %d: kernel ran (t=%d seq=%d), container/heap oracle says (t=%d seq=%d)",
				op, i, e.at, e.seq, w.at, w.seq)
		}
		m.now = e.at
		m.processed++
	}
	m.ran = m.ran[:0]
	if m.k.Now() != m.now || m.k.Pending() != m.oracle.Len() || m.k.Processed() != m.processed {
		m.t.Fatalf("%s: kernel now=%d pending=%d processed=%d, oracle now=%d pending=%d processed=%d",
			op, m.k.Now(), m.k.Pending(), m.k.Processed(), m.now, m.oracle.Len(), m.processed)
	}
}

func (m *mirror) step() {
	m.t.Helper()
	if want := m.oracle.Len() > 0; m.k.Step() != want {
		m.t.Fatalf("Step() = %v with %d events in the oracle", !want, m.oracle.Len())
	}
	m.check("step")
}

func (m *mirror) runUntil(d Time) {
	m.t.Helper()
	deadline := m.k.Now() + d
	m.k.RunUntil(deadline)
	if n := len(m.ran); n > 0 && m.ran[n-1].at > deadline {
		m.t.Fatalf("RunUntil(%d) ran an event at t=%d", deadline, m.ran[n-1].at)
	}
	m.check("run-until")
	if m.oracle.Len() > 0 && m.oracle[0].at <= deadline {
		m.t.Fatalf("RunUntil(%d) left (t=%d seq=%d) pending", deadline, m.oracle[0].at, m.oracle[0].seq)
	}
}

func (m *mirror) run() {
	m.t.Helper()
	m.k.Run()
	m.check("run")
	if m.oracle.Len() > 0 {
		m.t.Fatalf("Run left %d events in the oracle", m.oracle.Len())
	}
}

func (m *mirror) reset() {
	m.t.Helper()
	m.k.Reset()
	m.oracle, m.now, m.processed = m.oracle[:0], 0, 0
	m.check("reset")
}

// seam holds the delays that meet the queue's seams: the slot being
// drained (0), the last ring slot (63), the horizon and one past it
// (64, 65), the same slot one and two turns on (64·k), and a clock far
// from zero.
var seam = [16]Time{0, 1, 2, 3, 20, 62, 63, 64, 65, 127, 128, 129, 192, 640, 4096, 1 << 40}

// Script opcodes: the low three bits of a byte; the high five are its
// operand, a seam index except for opWide.
const (
	opPush  = iota // push at now+seam[operand]
	opNest         // the same, scheduling a follow-up seam[next byte] later
	opWide         // push at now+(operand<<8 | next byte): uniform below 8192
	opStep         // Step
	opUntil        // RunUntil(now+seam[operand])
	opRun          // Run
	opReset        // Reset
	opStep2        // Step again, so a random script drains about as fast as it fills
)

// play decodes script into operations and checks the kernel against the
// oracle after each one. Every byte string is a valid script; a missing
// operand byte reads as zero.
func (m *mirror) play(script []byte) {
	m.t.Helper()
	for i := 0; i < len(script); i++ {
		op, operand := script[i]&7, script[i]>>3
		var next byte
		if (op == opNest || op == opWide) && i+1 < len(script) {
			i++
			next = script[i]
		}
		switch op {
		case opPush:
			m.push(seam[operand&15], noNest)
			m.check("push")
		case opNest:
			m.push(seam[operand&15], seam[next&15])
			m.check("push")
		case opWide:
			m.push(Time(operand)<<8|Time(next), noNest)
			m.check("push")
		case opStep, opStep2:
			m.step()
		case opUntil:
			m.runUntil(seam[operand&15])
		case opRun:
			m.run()
		case opReset:
			m.reset()
		}
	}
}

// The script builders below spell the seam cases out in delays, not bytes.
func seamIndex(d Time) byte {
	for i, v := range seam {
		if v == d {
			return byte(i)
		}
	}
	panic(fmt.Sprintf("%d is not a seam delay", d))
}

func push(d Time) []byte          { return []byte{seamIndex(d)<<3 | opPush} }
func nest(d, then Time) []byte    { return []byte{seamIndex(d)<<3 | opNest, seamIndex(then)} }
func until(d Time) []byte         { return []byte{seamIndex(d)<<3 | opUntil} }
func script(ops ...[]byte) []byte { return bytes.Join(ops, nil) }

var step, run, reset = []byte{opStep}, []byte{opRun}, []byte{opReset}

// seamCases are the schedules a heap-only oracle test with small delays
// never reaches; each fails on the defect named beside it when that
// defect is injected into sim.go (EXPERIMENTS.md, E-kernel). They are
// also FuzzKernelOrder's seed corpus.
var seamCases = []struct {
	name   string
	script []byte
}{
	// Far events at t=128 from t=0, then, once the clock is within the
	// horizon of 128, near events at the same t=128: the far ones hold
	// the lower seqs. Fails with the ring popped first on a tie.
	{"far-then-near-same-time", script(
		push(128), push(128), push(65), step, // now=65, two far events at 128
		push(63), push(63), push(64), push(62), run)},
	// now+63 is the last ring slot, now+64 the first far time and the
	// alias of now's own slot. Fails with <= for < at the horizon (the
	// event at now+64 runs at now).
	{"horizon", script(
		push(63), push(64), push(65), push(0), push(127), push(128), push(129), step,
		push(3), step, push(63), push(64), push(65), push(0), run)},
	// One slot, three turns of the ring: t=1, 65 and 129 all map to
	// slot 1 and only the first may sit in it; after each runs the slot
	// is reused for the next turn's near events.
	{"slot-aliasing", script(
		push(1), push(65), push(129), step, // now=1
		push(64), push(63), until(63), // far at 65 twice, near at 64; now=64
		push(1), push(65), push(1), run)},
	// Events that schedule at now+0 land in the slot being drained,
	// behind what is already queued there — also when they were its
	// last event (the bit is cleared and set again) and when a far
	// event does it. Fails with the occupied bit never cleared.
	{"nested-into-draining-slot", script(
		nest(1, 0), push(1), nest(1, 0), step, step, step, step, step,
		nest(1, 0), run,
		nest(64, 0), nest(64, 0), push(64), run,
		nest(1, 64), push(1), nest(0, 0), nest(0, 63), run)},
	// A deadline between the two levels' minima, both ways round.
	{"run-until-between-minima", script(
		push(1), push(128), until(65), until(62), until(127), // near 1 < 65 < far 128
		push(65), push(127), step, push(63), until(62), run)}, // far 127 ≤ 127 < near 128
	// Reset with events pending in both levels and part of a slot run.
	{"reset-mid-slot", script(
		push(1), push(1), push(1), push(20), push(640), push(128), step,
		reset, push(1), push(64), push(0), run)},
	// A clock far from zero: slots are at&63, not at.
	{"large", script(
		push(1<<40), push(1), run, push(63), push(64), nest(1, 63), push(1<<40), run)},
}

// TestKernelOrderOracle drives the kernel and the original container/heap
// implementation through the seam cases and through randomized
// adversarial schedules — duplicate times, bursts of ties, nested
// scheduling, delays on both sides of the ring's horizon, deadlines that
// split the pending set — and demands the identical pop order, element
// for element. This is the determinism proof for the queue: byte-identical
// simulation results follow from identical event order.
func TestKernelOrderOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("property test; scripts/check.sh runs it explicitly")
	}
	for _, tc := range seamCases {
		t.Run(tc.name, func(t *testing.T) {
			m := &mirror{t: t}
			m.play(tc.script)
			m.run()
		})
	}
	r := rng.New(0xC0FFEE, 9)
	// delay mixes ties (a few distinct small values), the seams, and a
	// wide uniform range that lands most events in the overflow heap.
	delay := func() Time {
		switch r.Intn(3) {
		case 0:
			return Time(r.Intn(8))
		case 1:
			return seam[r.Intn(len(seam)-1)] // not 1<<40: keep the rounds' events mingling
		}
		return Time(r.Intn(1024))
	}
	for round := 0; round < 200; round++ {
		m := &mirror{t: t}
		// A burst scheduled from one clock value, a quarter of it nesting
		// a follow-up relative to the clock while the kernel drains; then
		// the queue is drained in deadline-sized pieces with more bursts
		// scheduled between them.
		for piece := r.Intn(4); piece >= 0; piece-- {
			for i := r.Intn(100) + 1; i > 0; i-- {
				if r.Intn(4) == 0 {
					m.push(delay(), delay())
				} else {
					m.push(delay(), noNest)
				}
			}
			m.check("burst")
			m.runUntil(delay())
		}
		m.run()
	}
}

// TestKernelOrderOracleInterleaved pushes and pops in random interleaving
// on one long-lived kernel — the arena's free list and the ring's slots
// are recycled thousands of times — comparing every pop with the oracle's
// root.
func TestKernelOrderOracleInterleaved(t *testing.T) {
	r := rng.New(31337, 4)
	m := &mirror{t: t}
	for op := 0; op < 5000; op++ {
		if m.k.Pending() == 0 || r.Intn(3) > 0 {
			d := Time(r.Intn(16))
			switch r.Intn(4) {
			case 0:
				d = seam[r.Intn(len(seam)-2)] // ≤ 640
			case 1:
				d = Time(r.Intn(256))
			}
			m.push(d, noNest)
			m.check("push")
		} else {
			m.step()
		}
	}
	m.run()
}

// FuzzKernelOrder plays an arbitrary push/step/run-until/run/reset script
// against the oracle, checking order, Now, Pending and Processed after
// every operation. Scripts are cut at 256 bytes: the seams are all within
// a few dozen operations' reach, and the fuzzer's minimizer, which re-runs
// an input once per byte, stalls for most of a 30 s budget on longer ones.
func FuzzKernelOrder(f *testing.F) {
	for _, tc := range seamCases {
		f.Add(tc.script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		script = script[:min(len(script), 256)]
		m := &mirror{t: t}
		m.play(script)
		m.run()
	})
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

// TestAtCallAndAtShareOneOrder verifies that events of different callers
// — two closures and a pooled Caller — live in one (at, seq) order, not a
// queue per caller.
func TestAtCallAndAtShareOneOrder(t *testing.T) {
	var k Kernel
	var order []int
	var c recordingCaller
	k.AtCall(3, fnCaller(func() { order = append(order, 0) }), 0, 0)
	k.AtCall(3, &c, 0, 0)
	k.AtCall(3, fnCaller(func() { order = append(order, 2) }), 0, 0)
	k.Run()
	if len(c.calls) != 1 || len(order) != 2 || order[0] != 0 || order[1] != 2 {
		t.Fatalf("mixed-form tie order wrong: funcs %v, calls %v", order, c.calls)
	}
}

// TestResetClearsStateKeepsCapacity resets a kernel with events pending in
// both levels and one slot half run: nothing of the old schedule may
// survive — arena, free list, occupancy word, overflow heap — and both
// backing arrays must, emptied of every action they referenced.
func TestResetClearsStateKeepsCapacity(t *testing.T) {
	var k Kernel
	for i := 0; i < 100; i++ {
		k.AtCall(Time(i%50), fnCaller(func() {}), 0, 0)    // near, two per time
		k.AtCall(Time(64+i%50), fnCaller(func() {}), 0, 0) // far
	}
	k.RunUntil(10)
	k.Step() // one of the two events at t=11: the slot is mid-drain, the free list non-empty
	if k.near == 0 || len(k.far) == 0 || k.free == 0 || k.occupied&(1<<11) == 0 {
		t.Fatalf("setup: near=%d far=%d free=%d occupied=%#x, want events in both levels, slot 11 occupied, a free node",
			k.near, len(k.far), k.free, k.occupied)
	}
	capArena, capFar := cap(k.arena), cap(k.far)
	k.Reset()
	if k.Now() != 0 || k.Pending() != 0 || k.Processed() != 0 || k.FarScheduled() != 0 {
		t.Fatalf("Reset left state: now=%d pending=%d processed=%d far=%d",
			k.Now(), k.Pending(), k.Processed(), k.FarScheduled())
	}
	if len(k.arena) != 0 || len(k.far) != 0 || k.free != 0 || k.occupied != 0 || k.near != 0 {
		t.Fatalf("Reset left queue state: arena=%d far=%d free=%d occupied=%#x near=%d",
			len(k.arena), len(k.far), k.free, k.occupied, k.near)
	}
	if cap(k.arena) != capArena || cap(k.far) != capFar {
		t.Fatalf("Reset dropped capacity: arena %d far %d, want %d and %d",
			cap(k.arena), cap(k.far), capArena, capFar)
	}
	for i, n := range k.arena[:capArena] {
		if n.c != nil {
			t.Fatalf("Reset left arena node %d holding its action", i)
		}
	}
	for i, e := range k.far[:capFar] {
		if e.c != nil {
			t.Fatalf("Reset left overflow entry %d holding its action", i)
		}
	}
	// A reused kernel behaves exactly like a fresh one.
	var order []int
	k.AtCall(70, fnCaller(func() { order = append(order, 3) }), 0, 0)
	k.AtCall(2, fnCaller(func() { order = append(order, 2) }), 0, 0)
	k.AtCall(1, fnCaller(func() { order = append(order, 1) }), 0, 0)
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("post-Reset order %v, want [1 2 3]", order)
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
			k.AtCall(Time(r.Intn(200)), fnCaller(func() { trace = append(trace, k.Now()) }), 0, 0)
		}
		k.Run()
		return trace
	}
	var fresh Kernel
	want := script(&fresh)

	var used Kernel
	r := rng.New(1, 2)
	for i := 0; i < 1000; i++ {
		used.AtCall(Time(r.Intn(160)), fnCaller(func() {}), 0, 0)
	}
	used.RunUntil(16)
	used.Step() // leave events pending in both levels, a slot half run, clock advanced
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
// once the node arena and the overflow heap have reached their high-water
// marks, scheduling a batch of pooled events with clustered timestamps
// on each side of the horizon (ties in the ring, real sift work in the
// heap) and draining both to empty allocates nothing.
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
		for j := 0; j < batch; j++ {
			k.AtCall(now+ringSize+Time(j%8), &c, uint64(j), 1)
		}
		for k.Step() {
		}
	}
	run() // grow both levels to their high-water marks
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("kernel schedule+drain allocates %v per %d-event batch, want 0", allocs, 2*batch)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	var k Kernel // one kernel, Reset per run, as the machines of a campaign use theirs
	for i := 0; i < b.N; i++ {
		k.Reset()
		for j := 0; j < 100; j++ {
			k.AtCall(Time(j%10), fnCaller(func() {}), 0, 0)
		}
		k.Run()
	}
}

// Package sim provides the deterministic discrete-event simulation kernel
// that every component of the simulated multiprocessor runs on.
//
// The kernel is a single-threaded priority queue of (time, sequence,
// action) events. Determinism matters more than raw speed here: two runs
// with the same configuration and seed must take exactly the same decisions
// so that tests can assert on metrics and the coherence oracle can define a
// total order of commits. Ties in time are broken by insertion order, so
// scheduling order is fully specified: the kernel executes events in the
// one total order (at, seq), seq counting every scheduling call
// (TestKernelOrderOracle and FuzzKernelOrder pin this against the original
// container/heap implementation).
//
// The queue has two levels, both always live. Simulated latencies are 1, 2,
// 20 cycles and a few network hops, so nearly every event is scheduled
// less than ringSize cycles ahead (Kernel.FarScheduled counts the rest);
// such a near event goes into a ring of ringSize per-cycle FIFO buckets,
// slot at&ringMask, and costs no comparison to push or pop: the next
// occupied slot is a rotate and a count-trailing-zeros of the occupancy
// word. An event at or beyond the horizon goes into a 4-ary min-heap
// ordered by (at, seq), the overflow level. The two together still pop
// in (at, seq) order, because:
//
//   - A slot holds one time only. Every ring event has now ≤ at <
//     now+ringSize (true when pushed; now only advances, and never past a
//     pending event). If T₁ is pending in a slot and T₂ ≡ T₁ (mod
//     ringSize) with T₂ ≠ T₁ is pushed, then T₂ ≥ T₁+ringSize ≥
//     now+ringSize, so T₂ takes the heap.
//   - Within a slot, (at, seq) order is insertion order, which a FIFO
//     keeps without storing either.
//   - On a tie in time the heap pops first. A far event at T was pushed
//     while now ≤ T−ringSize, a near one while now > T−ringSize, and now
//     is monotone, so the far event was scheduled earlier.
//
// Near events live in one arena of nodes linked by int32 and recycled
// through a free list, so the whole queue is two slices that keep their
// capacity across Reset. An event is a pooled (Caller, arg, arg) triple,
// the only form the kernel schedules, so no path — message-delivery
// fan-out above all — can allocate a fresh closure per event. The
// schedule/step cycle performs zero steady-state allocations
// (TestZeroAllocKernel holds it at 0 in every `go test` run).
package sim

import (
	"fmt"
	"math/bits"
)

// Time is simulated time in cycles.
type Time int64

// Caller is the scheduling target of AtCall/AfterCall: a
// long-lived object (a network, a controller) that interprets two packed
// integer arguments instead of capturing state in a closure. A
// pointer-shaped implementation keeps the interface conversion
// allocation-free, so scheduling through a Caller costs no heap traffic.
type Caller interface {
	Call(a0, a1 uint64)
}

// ringSize is the near horizon in cycles: one bit of the occupancy word
// per slot.
const (
	ringSize = 64
	ringMask = ringSize - 1
)

// node is one near event. Its slot implies its time and its position in
// the slot's list its sequence, so it stores neither. A link (next, and
// slot.head, slot.tail, Kernel.free) is an arena index plus one, which
// makes the zero Kernel's links all nil.
type node struct {
	c      Caller
	a0, a1 uint64
	next   int32
}

// slot is the FIFO of one ring cycle, meaningful only while its bit in
// Kernel.occupied is set.
type slot struct{ head, tail int32 }

// event is one far event, keyed for the overflow heap.
type event struct {
	at     Time
	seq    uint64 // order among far events; near events never need one
	c      Caller
	a0, a1 uint64
}

// before reports whether e precedes o in the total (at, seq) order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Hook observes event execution: BeforeEvent fires after the clock has
// advanced to the event's time but before its action runs, AfterEvent
// when the action returns. Hooks are for passive instrumentation
// (profiling, tracing) only — a hook must not schedule events or mutate
// simulation state, or it would perturb the very order it observes.
type Hook interface {
	BeforeEvent(at Time)
	AfterEvent(at Time)
}

// Kernel is a discrete-event scheduler. The zero value is ready to use.
type Kernel struct {
	now       Time
	occupied  uint64         // bit i set: ring[i] holds events
	ring      [ringSize]slot // near level: events at now ≤ at < now+ringSize
	arena     []node         // every ring node, pending or free
	free      int32          // free-list link into arena
	near      int            // events pending in the ring
	far       []event        // overflow level: 4-ary min-heap ordered by (at, seq)
	farSeq    uint64         // events pushed to far since Reset; the next one's seq
	processed uint64
	hook      Hook
}

// SetHook installs the profiling hook called around every executed
// event; nil removes it. The hook costs one nil check per event when
// absent.
func (k *Kernel) SetHook(h Hook) { k.hook = h }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Processed returns the number of events executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Pending returns the number of events not yet executed.
func (k *Kernel) Pending() int { return k.near + len(k.far) }

// FarScheduled returns the number of events scheduled ringSize or more
// cycles ahead since the last Reset: the ones that paid for the overflow
// heap instead of the ring. A readout for tests that hold the workload
// to the fast level, not a setting.
func (k *Kernel) FarScheduled() uint64 { return k.farSeq }

// Reset returns the kernel to its zero state — clock at 0, no pending
// events, counters cleared — while retaining the node arena's and the
// overflow heap's backing arrays, so a reused kernel schedules with zero
// allocations from the first event. The installed hook is kept; call
// SetHook(nil) to drop it. Pending actions are released for garbage
// collection. A run on a Reset kernel is indistinguishable from a run
// on a fresh kernel (TestKernelResetReuse pins byte-identical results).
func (k *Kernel) Reset() {
	clear(k.arena)
	k.arena = k.arena[:0]
	clear(k.far)
	k.far = k.far[:0]
	k.free, k.occupied, k.near = 0, 0, 0 // slots are dead without their bits
	k.now, k.farSeq, k.processed = 0, 0, 0
}

// AtCall schedules c.Call(a0, a1) at absolute time t: the caller object
// and two packed arguments travel in the event itself, so no closure is
// allocated. Scheduling in the past panics: it always indicates a
// component bug, and silently reordering time would invalidate every
// measurement downstream.
func (k *Kernel) AtCall(t Time, c Caller, a0, a1 uint64) {
	if c == nil {
		panic("sim: nil event caller")
	}
	k.push(t, c, a0, a1)
}

// AfterCall schedules c.Call(a0, a1) d cycles from now. Negative d panics.
func (k *Kernel) AfterCall(d Time, c Caller, a0, a1 uint64) {
	k.AtCall(k.now+d, c, a0, a1)
}

// push appends the event to its ring slot, or sifts it into the overflow
// heap when it lies at or beyond the horizon. A negative d or an
// overflowing now+d in AfterCall arrives here as at < now.
func (k *Kernel) push(at Time, c Caller, a0, a1 uint64) {
	if at < k.now {
		panic(fmt.Sprintf("sim: event scheduled at %d before now %d", at, k.now))
	}
	if at-k.now >= ringSize {
		k.far = append(k.far, event{at: at, seq: k.farSeq, c: c, a0: a0, a1: a1})
		k.farSeq++
		k.siftUp(len(k.far) - 1)
		return
	}
	l := k.free
	if l != 0 {
		k.free = k.arena[l-1].next
	} else {
		k.arena = append(k.arena, node{})
		l = int32(len(k.arena))
	}
	n := &k.arena[l-1]
	n.c, n.a0, n.a1 = c, a0, a1
	s := &k.ring[at&ringMask]
	if bit := uint64(1) << (at & ringMask); k.occupied&bit != 0 {
		k.arena[s.tail-1].next = l
	} else {
		k.occupied |= bit
		s.head = l
	}
	s.tail = l
	k.near++
}

// siftUp moves far[i] toward the root until its parent precedes it.
func (k *Kernel) siftUp(i int) {
	h := k.far
	e := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// siftDown re-heapifies after the root was replaced by the last leaf.
func (k *Kernel) siftDown() {
	h := k.far
	n := len(h)
	e := h[0]
	i := 0
	for {
		first := i<<2 + 1 // first child
		if first >= n {
			break
		}
		last := first + 4 // one past the last child
		if last > n {
			last = n
		}
		min := first
		for c := first + 1; c < last; c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&e) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = e
}

// next reports the time of the earliest pending event and whether the
// overflow heap holds it, which on a tie in time it does (package comment).
func (k *Kernel) next() (at Time, far, ok bool) {
	if k.occupied == 0 {
		if len(k.far) == 0 {
			return 0, false, false
		}
		return k.far[0].at, true, true
	}
	// Rotating the occupancy word right by now&ringMask puts now's slot
	// at bit 0, so the lowest set bit is the distance to the next event.
	at = k.now + Time(bits.TrailingZeros64(bits.RotateLeft64(k.occupied, -int(k.now&ringMask))))
	if len(k.far) > 0 && k.far[0].at <= at {
		return k.far[0].at, true, true
	}
	return at, false, true
}

// Step executes the single earliest pending event and reports whether one
// existed.
func (k *Kernel) Step() bool {
	at, far, ok := k.next()
	if !ok {
		return false
	}
	var c Caller
	var a0, a1 uint64
	if far {
		e := &k.far[0]
		c, a0, a1 = e.c, e.a0, e.a1
		n := len(k.far) - 1
		k.far[0] = k.far[n]
		k.far[n] = event{}
		k.far = k.far[:n]
		if n > 0 {
			k.siftDown()
		}
	} else {
		s := &k.ring[at&ringMask]
		l := s.head
		n := &k.arena[l-1]
		c, a0, a1 = n.c, n.a0, n.a1
		if l == s.tail {
			k.occupied &^= 1 << (at & ringMask)
		} else {
			s.head = n.next
		}
		n.c = nil // release the action for garbage collection
		n.next = k.free
		k.free = l
		k.near--
	}
	k.now = at
	k.processed++
	if k.hook != nil {
		k.hook.BeforeEvent(at)
	}
	c.Call(a0, a1)
	if k.hook != nil {
		k.hook.AfterEvent(at)
	}
	return true
}

// Run executes events until none remain.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil executes events with time ≤ deadline. Events scheduled later
// remain pending; the clock does not advance beyond the last executed
// event.
func (k *Kernel) RunUntil(deadline Time) {
	for {
		at, _, ok := k.next()
		if !ok || at > deadline {
			return
		}
		k.Step()
	}
}

// RunFor is RunUntil(Now()+d).
func (k *Kernel) RunFor(d Time) { k.RunUntil(k.now + d) }

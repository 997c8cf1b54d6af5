// Package sim provides the deterministic discrete-event simulation kernel
// that every component of the simulated multiprocessor runs on.
//
// The kernel is a single-threaded priority queue of (time, sequence,
// action) events. Determinism matters more than raw speed here: two runs
// with the same configuration and seed must take exactly the same decisions
// so that tests can assert on metrics and the coherence oracle can define a
// total order of commits. Ties in time are broken by insertion sequence
// number, so scheduling order is fully specified — the (at, seq) key is
// unique per event, so any correct min-heap pops the same total order,
// which is what lets the heap implementation change without perturbing a
// single simulation (TestKernelOrderOracle pins this against the original
// container/heap implementation).
//
// The event queue is an inlined 4-ary min-heap over event values: no
// heap.Interface, no per-Push interface boxing, and a shallower tree than
// the binary layout (half the levels for the same queue depth). Events
// carry either a plain func() or a pooled (Caller, arg, arg) triple; the
// second form exists so hot paths — message-delivery fan-out above all —
// can schedule work without allocating a fresh closure per event. The
// schedule/step cycle performs zero steady-state allocations
// (TestZeroAllocKernel holds it at 0 in every `go test` run).
package sim

import "fmt"

// Time is simulated time in cycles.
type Time int64

// Caller is the pooled scheduling target of AtCall/AfterCall: a
// long-lived object (a network, a controller) that interprets two packed
// integer arguments instead of capturing state in a closure. A
// pointer-shaped implementation keeps the interface conversion
// allocation-free, so scheduling through a Caller costs no heap traffic.
type Caller interface {
	Call(a0, a1 uint64)
}

// event is one scheduled action: either fn, or c.Call(a0, a1).
type event struct {
	at  Time
	seq uint64
	fn  func()
	c   Caller
	a0  uint64
	a1  uint64
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
	seq       uint64
	events    []event // 4-ary min-heap ordered by (at, seq)
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
func (k *Kernel) Pending() int { return len(k.events) }

// Reset returns the kernel to its zero state — clock at 0, no pending
// events, sequence and processed counters cleared — while retaining the
// event queue's backing array, so a reused kernel schedules with zero
// allocations from the first event. The installed hook is kept; call
// SetHook(nil) to drop it. Pending actions are released for garbage
// collection. A run on a Reset kernel is indistinguishable from a run
// on a fresh kernel (TestKernelResetReuse pins byte-identical results).
func (k *Kernel) Reset() {
	for i := range k.events {
		k.events[i] = event{}
	}
	k.events = k.events[:0]
	k.now = 0
	k.seq = 0
	k.processed = 0
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a component bug, and silently reordering time would
// invalidate every measurement downstream.
func (k *Kernel) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: nil event function")
	}
	k.push(event{at: t, fn: fn})
}

// After schedules fn to run d cycles from now. Negative d panics.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// AtCall schedules c.Call(a0, a1) at absolute time t. It is the pooled
// alternative to At for hot paths: the caller object and two packed
// arguments travel in the event itself, so no closure is allocated.
func (k *Kernel) AtCall(t Time, c Caller, a0, a1 uint64) {
	if c == nil {
		panic("sim: nil event caller")
	}
	k.push(event{at: t, c: c, a0: a0, a1: a1})
}

// AfterCall schedules c.Call(a0, a1) d cycles from now. Negative d panics.
func (k *Kernel) AfterCall(d Time, c Caller, a0, a1 uint64) {
	k.AtCall(k.now+d, c, a0, a1)
}

// push assigns the sequence number and sifts the event into the heap.
func (k *Kernel) push(e event) {
	if e.at < k.now {
		panic(fmt.Sprintf("sim: event scheduled at %d before now %d", e.at, k.now))
	}
	e.seq = k.seq
	k.seq++
	k.events = append(k.events, e)
	k.siftUp(len(k.events) - 1)
}

// siftUp moves events[i] toward the root until its parent precedes it.
func (k *Kernel) siftUp(i int) {
	h := k.events
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
	h := k.events
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

// Step executes the single earliest pending event and reports whether one
// existed.
func (k *Kernel) Step() bool {
	n := len(k.events)
	if n == 0 {
		return false
	}
	e := k.events[0]
	if n == 1 {
		k.events[0] = event{}
		k.events = k.events[:0]
	} else {
		k.events[0] = k.events[n-1]
		k.events[n-1] = event{}
		k.events = k.events[:n-1]
		k.siftDown()
	}
	k.now = e.at
	k.processed++
	if k.hook != nil {
		k.hook.BeforeEvent(e.at)
	}
	if e.fn != nil {
		e.fn()
	} else {
		e.c.Call(e.a0, e.a1)
	}
	if k.hook != nil {
		k.hook.AfterEvent(e.at)
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
	for len(k.events) > 0 && k.events[0].at <= deadline {
		k.Step()
	}
}

// RunFor is RunUntil(Now()+d).
func (k *Kernel) RunFor(d Time) { k.RunUntil(k.now + d) }

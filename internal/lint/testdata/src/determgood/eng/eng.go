// Package eng is kernel-reachable code the determinism analyzer must
// accept: order-insensitive map reads, slice-driven scheduling, and one
// documented escape hatch.
package eng

import "determgood/sim"

// Engine drives the kernel deterministically.
type Engine struct {
	k     *sim.Kernel
	queue map[int]int
}

// Depth sums the queue; pure map reads are order-insensitive.
func (e *Engine) Depth() int {
	n := 0
	for _, d := range e.queue {
		n += d
	}
	return n
}

// Run schedules from a caller-ordered slice, not a map.
func (e *Engine) Run(ds []int) {
	for _, d := range ds {
		e.k.AfterCall(int64(d), nil, 0, 0)
	}
}

// Audit runs concurrently only while the kernel is paused; the escape
// hatch records why that is safe.
func (e *Engine) Audit(done chan struct{}) {
	//lint:allow determinism audit goroutine runs only while the kernel is paused
	go func() { close(done) }()
}

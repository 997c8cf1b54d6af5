// Package eng is kernel-reachable code exhibiting every nondeterminism
// the analyzer must reject; the test pins the exact positions.
package eng

import (
	"math/rand"
	"time"

	"determbad/sim"
)

// Engine drives the kernel.
type Engine struct {
	k     *sim.Kernel
	queue map[int]int
}

// Seed mixes wall-clock time and global randomness into the schedule.
func (e *Engine) Seed() int64 {
	return time.Now().UnixNano() + rand.Int63()
}

// Spawn leaks a goroutine into the event loop.
func (e *Engine) Spawn() {
	go func() {}()
}

// Flush drains the queue in map iteration order, both accumulating and
// scheduling as it goes.
func (e *Engine) Flush() []int {
	var out []int
	for b, d := range e.queue {
		out = append(out, b)
		e.k.AfterCall(int64(d), nil, 0, 0)
	}
	return out
}

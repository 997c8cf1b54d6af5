// Package eng is ordinary kernel-reachable code: single-threaded,
// deterministic, no orchestrator imports.
package eng

import "determorch/sim"

// Run drives one complete simulation on the caller's goroutine.
func Run(seed uint64) uint64 {
	k := &sim.Kernel{}
	k.AfterCall(int64(seed%7), nil, 0, 0)
	k.Run()
	return seed * 2
}

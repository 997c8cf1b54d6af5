// Package orch is a declared orchestrator: its goroutine is legitimate.
package orch

import "determorchbad/sim"

// Run drives one kernel per call, possibly on a worker goroutine.
func Run(done chan struct{}) {
	go func() {
		k := &sim.Kernel{}
		k.AfterCall(1, nil, 0, 0)
		close(done)
	}()
}

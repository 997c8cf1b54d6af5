// Package eng runs inside the event loop, yet imports the orchestrator:
// the goroutine exemption would leak into kernel-reachable code.
package eng

import (
	"determorchbad/orch"
	"determorchbad/sim"
)

// Run schedules work and leans on the orchestrator from below.
func Run(done chan struct{}) {
	k := &sim.Kernel{}
	k.AfterCall(1, nil, 0, 0)
	orch.Run(done)
}

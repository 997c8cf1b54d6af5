// Package sim is a stand-in event kernel for the orchestrator fixtures.
package sim

// Kernel is the event kernel.
type Kernel struct{}

// Caller is the scheduling target of AtCall/AfterCall.
type Caller interface {
	Call(a0, a1 uint64)
}

// AtCall schedules c.Call(a0, a1) at absolute time t.
func (k *Kernel) AtCall(t int64, c Caller, a0, a1 uint64) {}

// AfterCall schedules c.Call(a0, a1) d cycles from now.
func (k *Kernel) AfterCall(d int64, c Caller, a0, a1 uint64) {}

// Run drains the event queue.
func (k *Kernel) Run() {}

// Package sim is a stand-in event kernel for the obs-passivity fixture.
package sim

// Kernel is the event kernel.
type Kernel struct{}

// Now reads the clock; observers may call this freely.
func (k *Kernel) Now() int64 { return 0 }

// Caller is the scheduling target of AtCall/AfterCall.
type Caller interface {
	Call(a0, a1 uint64)
}

// AtCall schedules c.Call(a0, a1) at absolute time t.
func (k *Kernel) AtCall(t int64, c Caller, a0, a1 uint64) {}

// AfterCall schedules c.Call(a0, a1) d cycles from now.
func (k *Kernel) AfterCall(d int64, c Caller, a0, a1 uint64) {}

// Package obs is a deliberately broken observability layer: it reads
// the clock (fine) but also schedules a flush event (a passivity
// violation the analyzer must flag even outside a map range).
package obs

import "determobs/sim"

// Recorder pretends to be an instrument.
type Recorder struct {
	kernel *sim.Kernel
	last   int64
}

// Note records an observation; reading the clock is allowed.
func (r *Recorder) Note() {
	r.last = r.kernel.Now()
}

// ScheduleFlush is the violation: instruments must never schedule.
func (r *Recorder) ScheduleFlush() {
	r.kernel.AfterCall(100, nil, 0, 0)
}

package obs

import "determobs/sim"

// TSRecorder pretends to be the windowed time-series instrument. It
// derives the current window from a clock read, which is fine; the
// violation is scheduling the window rollover as a kernel event —
// windows must be derived from reads, never driven by callbacks.
type TSRecorder struct {
	kernel *sim.Kernel
	width  int64
	window int64
}

// Observe folds a sample into the window covering the current time;
// clock reads are fine.
func (t *TSRecorder) Observe() {
	t.window = t.kernel.Now() / t.width
}

// ScheduleRollover is the violation: a window boundary is a derived
// quantity, not an event.
func (t *TSRecorder) ScheduleRollover() {
	t.kernel.AtCall((t.window+1)*t.width, nil, 0, 0)
}

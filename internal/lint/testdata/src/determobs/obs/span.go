package obs

import "determobs/sim"

// SpanRecorder pretends to be the transaction-span instrument. Reading
// the clock at phase boundaries is allowed; scheduling — even through
// the pooled AtCall path — is not.
type SpanRecorder struct {
	kernel *sim.Kernel
	caller sim.Caller
	start  int64
}

// Mark stamps a phase boundary; clock reads are fine.
func (s *SpanRecorder) Mark() {
	s.start = s.kernel.Now()
}

// ScheduleClose is the violation: a span recorder must never schedule,
// pooled or not.
func (s *SpanRecorder) ScheduleClose() {
	s.kernel.AtCall(s.start+10, s.caller, 0, 0)
}

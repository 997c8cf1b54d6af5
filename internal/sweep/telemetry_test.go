package sweep

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestProgressNilSafety pins that a campaign without telemetry costs
// nothing: every publisher entry point on a nil Progress is a no-op.
func TestProgressNilSafety(t *testing.T) {
	var p *Progress
	p.begin(4)
	p.noteRunStart(0)
	p.noteRunDone(0, false)
	p.noteEmitted()
	if got := p.Status(); !reflect.DeepEqual(got, Status{}) {
		t.Errorf("nil progress produced a non-zero status: %+v", got)
	}
}

// TestProgressCounts walks a small campaign by hand and checks the
// published numbers: completions, failures, emission lag, per-worker
// run counts.
func TestProgressCounts(t *testing.T) {
	p := NewProgress("unit", 10)
	p.begin(2)

	p.noteRunStart(0)
	p.noteRunDone(0, false)
	p.noteRunStart(1)
	p.noteRunDone(1, true) // a failed run still completes
	p.noteRunStart(0)
	p.noteRunDone(0, false)
	p.noteEmitted()

	st := p.Status()
	if st.Campaign != "unit" || st.Total != 10 {
		t.Errorf("identity wrong: %+v", st)
	}
	if st.Completed != 3 || st.Failed != 1 || st.Emitted != 1 {
		t.Errorf("counts wrong: completed=%d failed=%d emitted=%d", st.Completed, st.Failed, st.Emitted)
	}
	if st.CheckpointLag != 2 {
		t.Errorf("checkpoint lag = %d, want 2 (3 completed − 1 emitted)", st.CheckpointLag)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("%d worker rows, want 2", len(st.Workers))
	}
	if st.Workers[0].Runs != 2 || st.Workers[1].Runs != 1 {
		t.Errorf("per-worker runs wrong: %+v", st.Workers)
	}
	if st.RunsPerSecond < 0 || st.ETASeconds < 0 {
		t.Errorf("derived rates negative: %+v", st)
	}

	// The status must be expvar-publishable: plain JSON marshal works.
	if _, err := json.Marshal(st); err != nil {
		t.Errorf("status not JSON-marshalable: %v", err)
	}
}

// TestProgressMidRunUtilization pins that a worker currently inside a
// run accrues busy time before the run completes, so utilization never
// reads zero just because runs are long.
func TestProgressMidRunUtilization(t *testing.T) {
	// A reading taken just after a run starts is the hard case: elapsed
	// is tiny, so if busy and elapsed came from two clock readings the
	// gap between them would push utilization well past 1. Many fresh
	// campaigns make that window certain to be hit.
	for i := 0; i < 5000; i++ {
		p := NewProgress("unit", 1)
		p.begin(1)
		p.noteRunStart(0)
		w := p.Status().Workers[0]
		if w.BusySeconds < 0 || w.Utilization < 0 || w.Utilization > 1 {
			t.Fatalf("iteration %d: busy %vs, utilization %v, want within [0,1]", i, w.BusySeconds, w.Utilization)
		}
	}
}

// TestExecuteObservedMatchesExecute pins non-perturbation at the
// campaign level: the same plan with and without a Progress attached
// emits identical record sequences.
func TestExecuteObservedMatchesExecute(t *testing.T) {
	p := testPlan()
	collect := func(prog *Progress) []Record {
		var recs []Record
		if err := ExecuteObserved(p, Whole, 4, 0, func(r Record) error {
			recs = append(recs, r)
			return nil
		}, prog); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	prog := NewProgress(p.Name, p.Size())
	plain := collect(nil)
	observed := collect(prog)
	if len(plain) != len(observed) {
		t.Fatalf("record counts differ: %d vs %d", len(plain), len(observed))
	}
	for i := range plain {
		a, _ := json.Marshal(plain[i])
		b, _ := json.Marshal(observed[i])
		if string(a) != string(b) {
			t.Fatalf("record %d differs under telemetry:\n  %s\n  %s", i, a, b)
		}
	}
	st := prog.Status()
	if st.Completed != len(plain) || st.Emitted != len(plain) {
		t.Errorf("final status incomplete: completed=%d emitted=%d want %d", st.Completed, st.Emitted, len(plain))
	}
	if st.CheckpointLag != 0 {
		t.Errorf("final checkpoint lag = %d, want 0", st.CheckpointLag)
	}
	var total int
	for _, w := range st.Workers {
		total += w.Runs
	}
	if total != len(plain) {
		t.Errorf("Σ worker runs = %d, want %d", total, len(plain))
	}
}

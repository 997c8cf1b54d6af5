package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestEmitErrorAborts pins the abort path: when the store rejects an
// append mid-campaign, Execute must return that error, stop feeding new
// runs, drain the in-flight ones, leak no goroutines, and leave the
// partial store a valid resumable prefix.
func TestEmitErrorAborts(t *testing.T) {
	p := testPlan()
	path := filepath.Join(t.TempDir(), "aborted.jsonl")
	st, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	bang := fmt.Errorf("disk full")
	appended := 0
	err = Execute(p, 4, 0, func(rec Record) error {
		if appended == 5 {
			return bang
		}
		if err := st.Append(rec); err != nil {
			return err
		}
		appended++
		return nil
	})
	if err != bang {
		t.Fatalf("Execute returned %v, want the emit error", err)
	}
	st.Close()

	// No goroutine may outlive the campaign: workers, feeder, closer and
	// re-sequencer all exit before Execute returns (poll briefly — the
	// last exiting goroutine may still be unwinding its stack).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("campaign leaked goroutines: %d before, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}

	// The partial store is a valid prefix: exactly the records emitted
	// before the failure, in order, accepted by the resume guard.
	recs, err := LoadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("partial store holds %d records, want 5", len(recs))
	}
	if err := CheckPrefix(p, recs); err != nil {
		t.Fatalf("partial store rejected as resume prefix: %v", err)
	}

	// And resuming from it converges to the uninterrupted store.
	full := filepath.Join(t.TempDir(), "full.jsonl")
	runToFile(t, p, full, 2)
	st2, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := Execute(p, 4, st2.Next(), st2.Append); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	want, _ := os.ReadFile(full)
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, want) {
		t.Error("store resumed after an emit abort differs from the uninterrupted store")
	}
}

// TestCheckPrefixNamesDivergingField drives the resume guard through a
// divergence in every record coordinate and requires the error to name
// the field — the diagnostic a user needs to see *why* their store does
// not belong to their plan, not just that it doesn't.
func TestCheckPrefixNamesDivergingField(t *testing.T) {
	p := testPlan()
	recs, err := Collect(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		field  string
		mutate func(*Record)
	}{
		{"seed", func(r *Record) { r.Seed++ }},
		{"protocol", func(r *Record) { r.Protocol = "full-map-central" }},
		{"net", func(r *Record) { r.Net = "omega" }},
		{"scenario", func(r *Record) { r.Scenario = "phantom" }},
		{"q", func(r *Record) { r.Q += 0.01 }},
		{"w", func(r *Record) { r.W += 0.01 }},
		{"procs", func(r *Record) { r.Procs++ }},
		{"replicate", func(r *Record) { r.Replicate++ }},
	}
	for _, c := range cases {
		t.Run(c.field, func(t *testing.T) {
			mutated := make([]Record, len(recs))
			copy(mutated, recs)
			c.mutate(&mutated[3])
			err := CheckPrefix(p, mutated)
			if err == nil {
				t.Fatalf("CheckPrefix accepted a store with a diverging %s", c.field)
			}
			if !strings.Contains(err.Error(), "different plan") {
				t.Errorf("error does not say 'different plan': %v", err)
			}
			if !strings.Contains(err.Error(), "("+c.field+" diverges)") {
				t.Errorf("error does not name the diverging field %q: %v", c.field, err)
			}
			// A slice's resume guard applies the same per-record check.
			if err := checkSlice(p, Slice{1, 2}, []Record{mutated[1], mutated[3]}); err == nil {
				t.Errorf("checkSlice accepted a record with a diverging %s", c.field)
			}
		})
	}
}

// TestCheckSlice pins a slice store's resume guard: the k-th record
// must be run I + k·N, so records of another slice, out of stride or
// past the slice's end are refused.
func TestCheckSlice(t *testing.T) {
	p := testPlan()
	recs, err := Collect(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	var third []Record // slice 2/3: runs 2, 5, 8, 11, 14
	for id := 2; id < len(recs); id += 3 {
		third = append(third, recs[id])
	}
	if err := checkSlice(p, Slice{2, 3}, third); err != nil {
		t.Errorf("slice 2/3's own records rejected: %v", err)
	}
	if err := checkSlice(p, Slice{2, 3}, third[:2]); err != nil {
		t.Errorf("a prefix of slice 2/3 rejected: %v", err)
	}
	if err := checkSlice(p, Slice{1, 3}, third); err == nil {
		t.Error("slice 1/3 accepted slice 2/3's records")
	}
	if err := checkSlice(p, Slice{2, 3}, []Record{recs[2], recs[8]}); err == nil {
		t.Error("checkSlice accepted a record out of stride")
	}
	stray := recs[14]
	stray.RunID = 17
	if err := checkSlice(p, Slice{2, 3}, append(third, stray)); err == nil {
		t.Error("checkSlice accepted a record past the slice's end")
	}
}

// TestResumeOffsetEdges walks Execute's startAt boundary: 0 is the whole
// plan, len(points) is a completed campaign (a no-op, not an error),
// anything outside [0, len] is a caller bug.
func TestResumeOffsetEdges(t *testing.T) {
	p := testPlan()
	count := func(startAt int) (int, error) {
		n := 0
		err := Execute(p, 2, startAt, func(Record) error { n++; return nil })
		return n, err
	}
	if n, err := count(0); err != nil || n != p.Size() {
		t.Errorf("startAt=0: %d records, err %v; want %d, nil", n, err, p.Size())
	}
	if n, err := count(p.Size() - 1); err != nil || n != 1 {
		t.Errorf("startAt=len-1: %d records, err %v; want 1, nil", n, err)
	}
	if n, err := count(p.Size()); err != nil || n != 0 {
		t.Errorf("startAt=len: %d records, err %v; want 0, nil", n, err)
	}
	if _, err := count(p.Size() + 1); err == nil {
		t.Error("startAt=len+1 accepted")
	}
	if _, err := count(-1); err == nil {
		t.Error("startAt=-1 accepted")
	}
}

// TestResequencerBackpressureUnderSkew provokes the pathological shape
// the re-sequencer must survive: run 0 stalls while every other run is
// fast, so completed records pile up behind the emission gap. The token
// bound must stop the pool — completed-but-unemitted records never
// exceed resequenceLimit — rather than letting the whole campaign
// accumulate in the pending map.
func TestResequencerBackpressureUnderSkew(t *testing.T) {
	p := testPlan() // 16 runs — well above the workers=4 bound of 10
	workers := 4
	limit := resequenceLimit(workers)
	if p.Size() <= limit+2 {
		t.Fatalf("test plan too small to exceed the bound: %d runs, limit %d", p.Size(), limit)
	}

	release := make(chan struct{})
	testRunStall = func(pt Point) {
		if pt.RunID == 0 {
			<-release
		}
	}
	defer func() { testRunStall = nil }()

	prog := NewProgress(p.Name, p.Size())
	var recs []Record
	done := make(chan error, 1)
	go func() {
		done <- ExecuteObserved(p, Whole, workers, 0, func(r Record) error {
			recs = append(recs, r)
			return nil
		}, prog)
	}()

	// Wait for the pool to quiesce: run 0 stalled, every other worker
	// eventually starved by backpressure (completion count stable).
	deadline := time.Now().Add(10 * time.Second)
	last, stable := -1, 0
	for stable < 20 {
		if time.Now().After(deadline) {
			t.Fatal("pool never quiesced under a stalled run 0")
		}
		time.Sleep(10 * time.Millisecond)
		if c := prog.Status().Completed; c == last {
			stable++
		} else {
			last, stable = c, 0
		}
	}
	st := prog.Status()
	if st.Emitted != 0 {
		t.Errorf("%d records emitted while run 0 was stalled; emission must wait for run-id order", st.Emitted)
	}
	if st.Completed >= p.Size()-1 {
		t.Errorf("all %d unstalled runs completed behind the stall: the re-sequencer is unbounded", st.Completed)
	}
	if st.CheckpointLag > limit {
		t.Errorf("checkpoint lag %d exceeds the re-sequence bound %d", st.CheckpointLag, limit)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(recs) != p.Size() {
		t.Fatalf("campaign emitted %d of %d records", len(recs), p.Size())
	}
	for i, r := range recs {
		if r.RunID != i {
			t.Fatalf("record %d carries run id %d: emission order broken by the stall", i, r.RunID)
		}
	}
	if got := prog.Status(); got.CheckpointLag != 0 {
		t.Errorf("campaign ended with checkpoint lag %d", got.CheckpointLag)
	}
}

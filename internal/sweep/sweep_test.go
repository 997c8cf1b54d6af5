package sweep

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twobit/internal/obs"
	"twobit/internal/stats"
	"twobit/internal/system"
)

// testPlan is a small but non-trivial campaign: two protocols, two
// sharing levels, two machine sizes, two replicates = 16 runs, enough to
// keep 8 workers genuinely racing.
func testPlan() *Plan {
	p := &Plan{
		Name:        "test",
		Protocols:   []string{system.TwoBit.String(), system.FullMap.String()},
		Qs:          []float64{0.05, 0.10},
		Ws:          []float64{0.3},
		Procs:       []int{2, 4},
		Replicates:  2,
		RefsPerProc: 300,
		RootSeed:    7,
	}
	p.Normalize()
	return p
}

// runToFile executes the plan into a fresh store at path.
func runToFile(t *testing.T, p *Plan, path string, workers int) {
	t.Helper()
	st, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := Execute(p, workers, st.Next(), st.Append); err != nil {
		t.Fatal(err)
	}
}

func fileHash(t *testing.T, path string) [32]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(data)
}

// TestParallelIsByteIdenticalToSerial is the engine's headline guarantee:
// the same plan executed with 1 and with 8 workers produces result stores
// with identical bytes, hence identical hashes.
func TestParallelIsByteIdenticalToSerial(t *testing.T) {
	p := testPlan()
	dir := t.TempDir()
	serial := filepath.Join(dir, "serial.jsonl")
	parallel := filepath.Join(dir, "parallel.jsonl")
	runToFile(t, p, serial, 1)
	runToFile(t, p, parallel, 8)
	if fileHash(t, serial) != fileHash(t, parallel) {
		a, _ := os.ReadFile(serial)
		b, _ := os.ReadFile(parallel)
		t.Fatalf("stores differ between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
	recs, err := LoadStore(serial)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != p.Size() {
		t.Fatalf("store holds %d records, plan has %d runs", len(recs), p.Size())
	}
	for _, r := range recs {
		if r.Err != "" {
			t.Errorf("run %d failed: %s", r.RunID, r.Err)
		}
	}
}

// TestResumeConvergesToSameStore kills a campaign partway (simulated by
// truncating the store), resumes it, and requires the final store to be
// byte-identical to an uninterrupted one — including when the truncation
// tears a line in half.
func TestResumeConvergesToSameStore(t *testing.T) {
	p := testPlan()
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	runToFile(t, p, full, 4)
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	lines := bytes.SplitAfter(want, []byte("\n"))
	half := bytes.Join(lines[:len(lines)/2], nil)

	cases := map[string][]byte{
		"clean half":  half,
		"torn line":   append(append([]byte{}, half...), lines[len(lines)/2][:10]...),
		"empty store": nil,
	}
	for name, prefix := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "resumed.jsonl")
			if err := os.WriteFile(path, prefix, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(path, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := Execute(p, 3, st.Next(), st.Append); err != nil {
				t.Fatal(err)
			}
			st.Close()
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("resumed store differs from uninterrupted store:\n--- resumed ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestStoreRejectsInteriorCorruption: a store whose kept lines are not
// sequential must refuse to resume rather than silently diverge.
func TestStoreRejectsInteriorCorruption(t *testing.T) {
	p := testPlan()
	path := filepath.Join(t.TempDir(), "store.jsonl")
	runToFile(t, p, path, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	// Drop line 1, keeping lines 0 and 2..: run ids jump 0 → 2.
	corrupt := append(append([]byte{}, lines[0]...), bytes.Join(lines[2:], nil)...)
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, true); err == nil {
		t.Fatal("Open(resume) accepted a store with a run-id gap")
	}
}

// TestPointsExpansion checks run-id order, seed derivation and size.
func TestPointsExpansion(t *testing.T) {
	p := testPlan()
	points, err := p.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != p.Size() {
		t.Fatalf("expanded %d points, Size says %d", len(points), p.Size())
	}
	seeds := make(map[uint64]int)
	for i, pt := range points {
		if pt.RunID != i {
			t.Fatalf("point %d has run id %d", i, pt.RunID)
		}
		if prev, dup := seeds[pt.Seed]; dup {
			t.Errorf("runs %d and %d share seed %d", prev, i, pt.Seed)
		}
		seeds[pt.Seed] = i
	}
	// Replicates are innermost: runs 0 and 1 differ only in replicate/seed.
	a, b := points[0], points[1]
	if a.Replicate != 0 || b.Replicate != 1 ||
		a.Protocol != b.Protocol || a.Q != b.Q || a.W != b.W || a.Procs != b.Procs {
		t.Errorf("replicates are not innermost: %+v then %+v", a, b)
	}
	// Expansion is deterministic.
	again, err := p.Points()
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if points[i] != again[i] {
			t.Fatalf("expansion is not deterministic at point %d", i)
		}
	}
}

// TestPlanRoundTrip: a plan survives the JSON plan-file format.
func TestPlanRoundTrip(t *testing.T) {
	p := ExamplePlan()
	data, err := p.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadPlan(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !plansEqual(p, back) {
		t.Errorf("plan changed across the file format:\n  in   %+v\n  out  %+v", p, back)
	}
}

func plansEqual(a, b *Plan) bool {
	ad, _ := a.MarshalIndent()
	bd, _ := b.MarshalIndent()
	return bytes.Equal(ad, bd)
}

func TestReadPlanRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"unknown field":   `{"name":"x","protocols":["two-bit"],"qs":[0.1],"ws":[0.2],"procs":[2],"bogus":1}`,
		"empty axis":      `{"name":"x","protocols":[],"qs":[0.1],"ws":[0.2],"procs":[2]}`,
		"bad protocol":    `{"name":"x","protocols":["three-bit"],"qs":[0.1],"ws":[0.2],"procs":[2]}`,
		"bad net":         `{"name":"x","protocols":["two-bit"],"nets":["token-ring"],"qs":[0.1],"ws":[0.2],"procs":[2]}`,
		"oversized procs": `{"name":"x","protocols":["two-bit"],"qs":[0.1],"ws":[0.2],"procs":[128]}`,
		"bad q":           `{"name":"x","protocols":["two-bit"],"qs":[1.5],"ws":[0.2],"procs":[2]}`,
		// The on-disk scenario segment cache is gone: its field is unknown.
		"trace cache": `{"name":"x","protocols":["two-bit"],"qs":[0.1],"ws":[0.2],"procs":[2],"trace_cache":"/tmp/c"}`,
	}
	for name, in := range cases {
		if _, err := ReadPlan(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadPlan accepted %s", name, in)
		}
	}
}

// TestReadPlanFile: the shared opener reads a path or, for "-", standard
// input, and names the file or the JSON fault under the package prefix.
func TestReadPlanFile(t *testing.T) {
	data, err := ExamplePlan().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "plan.json")
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte(`{"name":`), 0o644); err != nil {
		t.Fatal(err)
	}

	p, err := ReadPlanFile(good)
	if err != nil || !plansEqual(p, ExamplePlan()) {
		t.Errorf("ReadPlanFile(file) = %+v, %v", p, err)
	}

	stdin, err := os.Open(good)
	if err != nil {
		t.Fatal(err)
	}
	defer stdin.Close()
	saved := os.Stdin
	os.Stdin = stdin
	p, err = ReadPlanFile("-")
	os.Stdin = saved
	if err != nil || !plansEqual(p, ExamplePlan()) {
		t.Errorf(`ReadPlanFile("-") = %+v, %v`, p, err)
	}

	missing := filepath.Join(dir, "absent.json")
	_, err = ReadPlanFile(missing)
	if !errors.Is(err, os.ErrNotExist) || !strings.HasPrefix(err.Error(), "sweep: open "+missing+": ") {
		t.Errorf("missing file: %v", err)
	}
	_, err = ReadPlanFile(bad)
	if err == nil || err.Error() != "sweep: parsing plan: unexpected EOF" {
		t.Errorf("bad JSON: %v", err)
	}
}

// TestAggregate folds a real campaign and cross-checks a cell against the
// record it came from.
func TestAggregate(t *testing.T) {
	p := testPlan()
	recs, err := Collect(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	grids, failed, err := Aggregate(p, recs, "cmds_per_ref")
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("%d runs failed", failed)
	}
	wantSections := len(p.Protocols) * len(p.Nets) * len(p.Qs)
	if len(grids) != wantSections {
		t.Fatalf("got %d grid sets, want %d", len(grids), wantSections)
	}
	for _, gs := range grids {
		if err := gs.Mean.Validate(); err != nil {
			t.Errorf("mean grid invalid: %v", err)
		}
	}

	// Recompute cell (w=0.3, n=2) of the first section by hand.
	points, _ := p.Points()
	var sum float64
	var count int
	var min, max float64
	for i, rec := range recs {
		pt := points[i]
		if pt.Protocol.String() != grids[0].Protocol || pt.Q != grids[0].Q || pt.W != 0.3 || pt.Procs != 2 {
			continue
		}
		res, err := rec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		v := res.CommandsPerCachePerRef
		if count == 0 || v < min {
			min = v
		}
		if count == 0 || v > max {
			max = v
		}
		sum += v
		count++
	}
	if count != p.Replicates {
		t.Fatalf("expected %d replicates in the cell, found %d", p.Replicates, count)
	}
	if got, want := grids[0].Mean.Cells[0][0], sum/float64(count); got != want {
		t.Errorf("mean cell = %v, want %v", got, want)
	}
	if grids[0].Min.Cells[0][0] != min || grids[0].Max.Cells[0][0] != max {
		t.Errorf("min/max cells = %v/%v, want %v/%v",
			grids[0].Min.Cells[0][0], grids[0].Max.Cells[0][0], min, max)
	}
	if min == max {
		t.Error("replicates produced identical metric values; seed variation is not reaching the runs")
	}

	if _, _, err := Aggregate(p, recs[:3], "cmds_per_ref"); err == nil {
		t.Error("Aggregate accepted an incomplete campaign")
	}
	if _, _, err := Aggregate(p, recs, "no_such_metric"); err == nil {
		t.Error("Aggregate accepted an unknown metric")
	}
}

// TestExecuteRejectsBadResumeOffset: resuming past the end of the plan is
// a caller error, not a silent no-op beyond the final run.
func TestExecuteRejectsBadResumeOffset(t *testing.T) {
	p := testPlan()
	if err := Execute(p, 2, p.Size()+1, func(Record) error { return nil }); err == nil {
		t.Error("Execute accepted a resume offset beyond the plan")
	}
	if err := Execute(p, 2, -1, func(Record) error { return nil }); err == nil {
		t.Error("Execute accepted a negative resume offset")
	}
	// Resuming exactly at the end is a completed campaign: a no-op.
	if err := Execute(p, 2, p.Size(), func(Record) error { return nil }); err != nil {
		t.Errorf("Execute of a completed campaign errored: %v", err)
	}
}

// TestPlanValidateObsTopK: obs_topk is a sketch capacity that sizes three
// tables per run, so a negative one (which would silently skip the
// profiling the plan asked for) and one past stats.MaxTopK are named
// errors; the bounds themselves validate.
func TestPlanValidateObsTopK(t *testing.T) {
	for _, tc := range []struct {
		topK int
		want string
	}{
		{0, ""},
		{1, ""},
		{stats.MaxTopK, ""},
		{-1, `sweep: plan "test": obs_topk must be in 0..4096 (0 leaves contention profiling off), got -1`},
		{stats.MaxTopK + 1, `sweep: plan "test": obs_topk must be in 0..4096 (0 leaves contention profiling off), got 4097`},
		{1 << 40, `sweep: plan "test": obs_topk must be in 0..4096 (0 leaves contention profiling off), got 1099511627776`},
	} {
		p := testPlan()
		p.ObsTopK = tc.topK
		err := p.Validate()
		if got := fmt.Sprint(err); (tc.want == "" && err != nil) || (tc.want != "" && got != tc.want) {
			t.Errorf("obs_topk %d: Validate() = %v, want %q", tc.topK, err, tc.want)
		}
	}
}

// TestWriteOncePlanForcesBus: structural protocol requirements are
// adjusted per point the way the benchmark harness does.
func TestWriteOncePlanForcesBus(t *testing.T) {
	p := testPlan()
	p.Protocols = []string{system.WriteOnce.String(), system.Duplication.String()}
	if err := p.Validate(); err != nil {
		t.Fatalf("plan with write-once/duplication should validate: %v", err)
	}
	points, err := p.Points()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		cfg := p.Config(pt)
		if pt.Protocol == system.WriteOnce && cfg.Net != system.BusNet {
			t.Fatalf("write-once point not forced onto the bus: %+v", cfg)
		}
		if pt.Protocol == system.Duplication && cfg.Modules != 1 {
			t.Fatalf("duplication point not centralized: %+v", cfg)
		}
	}
}

// TestCheckPrefixGuardsForeignStores pins the resume guard: a store
// checkpointed by the same plan is accepted, one produced by a plan with a
// different root seed (or any other axis) is rejected, and an overlong
// store is rejected.
func TestCheckPrefixGuardsForeignStores(t *testing.T) {
	p := testPlan()
	recs, err := Collect(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPrefix(p, recs); err != nil {
		t.Fatalf("own records rejected: %v", err)
	}
	if err := CheckPrefix(p, recs[:5]); err != nil {
		t.Fatalf("own prefix rejected: %v", err)
	}

	other := testPlan()
	other.RootSeed = 99
	if err := CheckPrefix(other, recs); err == nil {
		t.Fatal("records from root_seed=7 accepted by a root_seed=99 plan")
	} else if !strings.Contains(err.Error(), "different plan") {
		t.Fatalf("wrong error: %v", err)
	}

	short := testPlan()
	short.Replicates = 1
	short.Normalize()
	if err := CheckPrefix(short, recs); err == nil {
		t.Fatal("16 records accepted by an 8-run plan")
	} else if !strings.Contains(err.Error(), "expands to") {
		t.Fatalf("wrong error: %v", err)
	}
}

// TestResumeMatrix crosses resume worker counts with kill points,
// including a kill mid-record (the torn line a crash during a synced
// append leaves behind): every combination must converge byte for byte
// to the uninterrupted store. The worker axis matters because resume
// re-sequencing starts from a nonzero offset — an off-by-one there
// would only show up when many workers race past the checkpoint.
func TestResumeMatrix(t *testing.T) {
	p := testPlan()
	full := filepath.Join(t.TempDir(), "full.jsonl")
	runToFile(t, p, full, 4)
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(want, []byte("\n"))

	cuts := map[string][]byte{
		"empty":         nil,
		"clean quarter": bytes.Join(lines[:len(lines)/4], nil),
		"clean half":    bytes.Join(lines[:len(lines)/2], nil),
		"mid-record":    append(bytes.Join(lines[:len(lines)/2], nil), lines[len(lines)/2][:10]...),
		"all but one":   bytes.Join(lines[:p.Size()-1], nil),
	}
	for _, workers := range []int{1, 4, 16} {
		for name, prefix := range cuts {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, name), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "resumed.jsonl")
				if err := os.WriteFile(path, prefix, 0o644); err != nil {
					t.Fatal(err)
				}
				st, err := Open(path, true)
				if err != nil {
					t.Fatal(err)
				}
				prefixRecs, err := LoadStore(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := CheckPrefix(p, prefixRecs); err != nil {
					t.Fatal(err)
				}
				if err := Execute(p, workers, st.Next(), st.Append); err != nil {
					t.Fatal(err)
				}
				st.Close()
				if fileHash(t, path) != sha256.Sum256(want) {
					got, _ := os.ReadFile(path)
					t.Errorf("resumed store differs from uninterrupted store:\n--- resumed ---\n%s\n--- want ---\n%s", got, want)
				}
			})
		}
	}
}

// TestObsPlanIsDeterministicAcrossWorkers extends the byte-identity
// guarantee to instrumented campaigns: with obs on, each record carries
// its run's full metrics snapshot, and the store is still identical for
// any worker count.
func TestObsPlanIsDeterministicAcrossWorkers(t *testing.T) {
	p := testPlan()
	p.Obs = true
	dir := t.TempDir()
	serial := filepath.Join(dir, "serial.jsonl")
	parallel := filepath.Join(dir, "parallel.jsonl")
	runToFile(t, p, serial, 1)
	runToFile(t, p, parallel, 8)
	if fileHash(t, serial) != fileHash(t, parallel) {
		t.Fatal("instrumented stores differ between workers=1 and workers=8")
	}
	recs, err := LoadStore(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		res, err := rec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if res.Obs == nil {
			t.Fatalf("run %d: no obs snapshot despite plan.Obs", rec.RunID)
		}
		if _, ok := res.Obs.Counter("net/sends"); !ok {
			t.Fatalf("run %d: snapshot missing net/sends", rec.RunID)
		}
	}

	// The same plan with obs off must still produce the pre-obs bytes:
	// an instrumented campaign is an additive superset, not a new format.
	p2 := testPlan()
	plain := filepath.Join(dir, "plain.jsonl")
	runToFile(t, p2, plain, 4)
	plainRecs, err := LoadStore(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range plainRecs {
		if bytes.Contains(rec.Results, []byte(`"obs"`)) {
			t.Fatalf("run %d: uninstrumented record carries an obs section", rec.RunID)
		}
	}
}

// TestTracePointMatchesStoredRecord pins the replay contract behind
// twobit obs -run: re-running a stored run with a recorder attached
// reproduces the stored results byte for byte once the snapshot is
// stripped.
func TestTracePointMatchesStoredRecord(t *testing.T) {
	p := testPlan()
	recs, err := Collect(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	runID := 3
	rec := obs.New(1 << 12)
	res, err := TracePoint(p, runID, rec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.EventCount() == 0 {
		t.Fatal("replay recorded no events")
	}
	res.Obs = nil
	enc, err := res.EncodeStable()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, recs[runID].Results) {
		t.Errorf("replayed results differ from stored record:\n--- replay ---\n%s\n--- stored ---\n%s", enc, recs[runID].Results)
	}

	if _, err := TracePoint(p, p.Size(), rec); err == nil {
		t.Error("out-of-range run id accepted")
	}
}

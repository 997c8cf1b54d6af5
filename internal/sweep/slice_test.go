package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// referenceStore runs the plan unsharded at workers=1 — the canonical
// bytes every sharded execution must converge to.
func referenceStore(t *testing.T, p *Plan) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ref.jsonl")
	runToFile(t, p, path, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runShardSlice resumes slice sl of the plan in dir, aborting after
// stopAfter records (stopAfter < 0 runs to completion) — the in-process
// stand-in for a shard process killed mid-campaign.
func runShardSlice(t *testing.T, p *Plan, dir string, sl Slice, workers, stopAfter int) {
	t.Helper()
	st, err := OpenSlice(dir, sl)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.CheckPlan(p); err != nil {
		t.Fatal(err)
	}
	killed := fmt.Errorf("kill")
	appended := 0
	err = ExecuteObserved(p, sl, workers, st.Next(), func(rec Record) error {
		if stopAfter >= 0 && appended >= stopAfter {
			return killed
		}
		appended++
		return st.Append(rec)
	}, nil)
	if stopAfter < 0 && err != nil {
		t.Fatal(err)
	}
	if stopAfter >= 0 && err != killed {
		t.Fatalf("kill at %d records did not abort: %v", stopAfter, err)
	}
}

// mergeShards merges dir's slices and returns the canonical store bytes.
func mergeShards(t *testing.T, p *Plan, dir string) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "merged.jsonl")
	if err := WriteMergedStore(p, dir, out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// appendTorn appends half a record to the file at path — the bytes a
// kill during a synced append leaves behind.
func appendTorn(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(`{"run_id":99,"protoc`); err != nil {
		t.Fatal(err)
	}
}

// TestShardMergeMatrix is the slice-store determinism property: for any
// slice count, and any kill point — including a torn trailing line in a
// slice's file — resuming every slice to completion and merging
// produces a store byte-identical to the unsharded workers=1 store.
func TestShardMergeMatrix(t *testing.T) {
	p := testPlan()
	want := referenceStore(t, p)

	for _, of := range []int{1, 2, 3, 4} {
		for _, kill := range []int{-1, 0, 3} { // -1: clean run; 0/3: killed then resumed
			name := fmt.Sprintf("shards=%d/kill=%d", of, kill)
			t.Run(name, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "shards")
				for i := 0; i < of; i++ {
					sl := Slice{i, of}
					if kill >= 0 {
						// First attempt dies after `kill` records …
						runShardSlice(t, p, dir, sl, 2, kill)
						// … possibly mid-append, tearing a line.
						if kill > 0 {
							appendTorn(t, sl.path(dir))
						}
					}
					// The resumed (or only) attempt completes the slice.
					runShardSlice(t, p, dir, sl, 2, -1)
				}
				if got := mergeShards(t, p, dir); !bytes.Equal(got, want) {
					t.Errorf("merged store differs from unsharded workers=1 store:\n--- merged ---\n%s\n--- want ---\n%s", got, want)
				}
			})
		}
	}
}

// TestSliceKillPointResume kills slice 0/2 mid-record while slice 1/2 is
// alive and itself part-way through an append: reopening slice 0 must
// truncate its own torn tail and leave every byte of slice 1's file
// alone, and once both finish the merge equals the workers=1 store.
func TestSliceKillPointResume(t *testing.T) {
	p := testPlan()
	want := referenceStore(t, p)
	dir := filepath.Join(t.TempDir(), "shards")
	s0, s1 := Slice{0, 2}, Slice{1, 2}

	// Slice 1 appends three records, then stalls half-way through the
	// write of its fourth: its file ends in a torn line it will finish.
	st1, err := OpenSlice(dir, s1)
	if err != nil {
		t.Fatal(err)
	}
	stalled, resume := make(chan struct{}), make(chan struct{})
	done1 := make(chan error, 1)
	go func() {
		done1 <- ExecuteObserved(p, s1, 2, 0, func(rec Record) error {
			if st1.Next() != 3 {
				return st1.Append(rec)
			}
			line, err := json.Marshal(rec)
			if err != nil {
				return err
			}
			line = append(line, '\n')
			if _, err := st1.f.Write(line[:10]); err != nil {
				return err
			}
			close(stalled)
			<-resume
			if _, err := st1.f.Write(line[10:]); err != nil {
				return err
			}
			st1.next++
			return nil
		}, nil)
	}()
	<-stalled

	// Slice 0 dies after two records, mid-append.
	runShardSlice(t, p, dir, s0, 2, 2)
	clean, err := os.ReadFile(s0.path(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendTorn(t, s0.path(dir))
	sibling, err := os.ReadFile(s1.path(dir))
	if err != nil {
		t.Fatal(err)
	}

	st0, err := OpenSlice(dir, s0)
	if err != nil {
		t.Fatal(err)
	}
	if st0.Next() != 2 {
		t.Errorf("reopened slice 0 resumes at %d records, want 2", st0.Next())
	}
	if got, _ := os.ReadFile(s0.path(dir)); !bytes.Equal(got, clean) {
		t.Errorf("reopened slice 0 holds %d bytes, want its %d-byte clean prefix", len(got), len(clean))
	}
	if got, _ := os.ReadFile(s1.path(dir)); !bytes.Equal(got, sibling) {
		t.Errorf("reopening slice 0 changed slice 1's file: %d bytes, was %d", len(got), len(sibling))
	}

	if err := ExecuteObserved(p, s0, 2, st0.Next(), st0.Append, nil); err != nil {
		t.Fatal(err)
	}
	st0.Close()
	close(resume)
	if err := <-done1; err != nil {
		t.Fatal(err)
	}
	st1.Close()
	if got := mergeShards(t, p, dir); !bytes.Equal(got, want) {
		t.Error("merge after the kill differs from the workers=1 store")
	}
}

// TestShardedWorkerWidthInvariance: the merged bytes do not depend on
// how many workers each slice ran with.
func TestShardedWorkerWidthInvariance(t *testing.T) {
	p := testPlan()
	want := referenceStore(t, p)
	for _, workers := range []int{1, 2, 4, 8} {
		dir := filepath.Join(t.TempDir(), "shards")
		for i := 0; i < 2; i++ {
			runShardSlice(t, p, dir, Slice{i, 2}, workers, -1)
		}
		if got := mergeShards(t, p, dir); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: merged store differs from reference", workers)
		}
	}
}

// TestShardedStoreRejectsMixedWidths: one directory cannot mix
// partitions of different slice counts — run ids would double-execute.
func TestShardedStoreRejectsMixedWidths(t *testing.T) {
	p := testPlan()
	dir := filepath.Join(t.TempDir(), "shards")
	runShardSlice(t, p, dir, Slice{0, 2}, 1, -1)
	runShardSlice(t, p, dir, Slice{1, 2}, 1, -1)
	if _, err := OpenSlice(dir, Slice{0, 3}); err == nil {
		t.Fatal("a 3-way slice opened a directory holding 2-way slices")
	}
	if err := os.WriteFile(Slice{2, 3}.path(dir), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	err := WriteMergedStore(p, dir, filepath.Join(t.TempDir(), "merged.jsonl"))
	if err == nil || !strings.Contains(err.Error(), "holds both") {
		t.Fatalf("merge of a directory mixing 2-way and 3-way slices: %v", err)
	}
}

// TestShardedStoreRejectsDuplicates: a slice file holding a run twice
// (a line duplicated by a bad copy) is refused at open and at merge.
func TestShardedStoreRejectsDuplicates(t *testing.T) {
	p := testPlan()
	dir := filepath.Join(t.TempDir(), "shards")
	for i := 0; i < 2; i++ {
		runShardSlice(t, p, dir, Slice{i, 2}, 1, -1)
	}
	path := Slice{0, 2}.path(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	dup := bytes.Join(append([][]byte{lines[0]}, lines[:len(lines)-2]...), nil)
	if err := os.WriteFile(path, dup, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSlice(dir, Slice{0, 2}); err == nil {
		t.Error("OpenSlice accepted a slice holding a run twice")
	}
	if err := WriteMergedStore(p, dir, filepath.Join(t.TempDir(), "merged.jsonl")); err == nil {
		t.Error("WriteMergedStore accepted a slice holding a run twice")
	}
}

// TestMergeRejectsIncompleteShards: -merge on a directory missing a
// slice (a shard process that never ran) or holding a short one (a
// process killed and not resumed) must refuse to write a canonical store
// rather than produce one with holes.
func TestMergeRejectsIncompleteShards(t *testing.T) {
	p := testPlan()
	dir := filepath.Join(t.TempDir(), "shards")
	out := filepath.Join(t.TempDir(), "merged.jsonl")
	runShardSlice(t, p, dir, Slice{0, 2}, 2, -1)
	if err := WriteMergedStore(p, dir, out); err == nil || !strings.Contains(err.Error(), "missing slice 1/2") {
		t.Errorf("merge without slice 1/2: %v", err)
	}
	runShardSlice(t, p, dir, Slice{1, 2}, 2, 5)
	appendTorn(t, Slice{1, 2}.path(dir))
	if err := WriteMergedStore(p, dir, out); err == nil || !strings.Contains(err.Error(), "slice 1/2 holds 5 of its 8 runs") {
		t.Errorf("merge with a short slice 1/2: %v", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Error("a failed merge left a store file behind")
	}
}

// TestMergeChecksRunIDStride: run r must sit at line r div N of slice
// r mod N. A record carrying another run id is refused even when its
// coordinates match the point its position expands to.
func TestMergeChecksRunIDStride(t *testing.T) {
	p := testPlan()
	dir := filepath.Join(t.TempDir(), "shards")
	for i := 0; i < 2; i++ {
		runShardSlice(t, p, dir, Slice{i, 2}, 2, -1)
	}
	path := Slice{1, 2}.path(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Replace(data, []byte(`{"run_id":1,`), []byte(`{"run_id":3,`), 1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = WriteMergedStore(p, dir, filepath.Join(t.TempDir(), "merged.jsonl"))
	if err == nil || !strings.Contains(err.Error(), "holds run 3, want run 1") {
		t.Fatalf("merge of a record out of stride: %v", err)
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden files from the current output.
var update = os.Getenv("UPDATE_GOLDEN") != ""

// TestGolden pins what a user sees: each row runs one command line
// in-process and compares its stdout, byte for byte, with
// testdata/golden/<name>.txt. The rows cover the success paths of the
// commands that print the paper's evidence — Tables 4-1 and 4-2 analytic
// and measured, the protocol comparison, one run's -json record — and
// the exports of a windowed campaign. Regenerate with UPDATE_GOLDEN=1
// after an intentional change, and read the diff.
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	plan := filepath.Join(dir, "win.json")
	store := filepath.Join(dir, "win.jsonl")
	const body = `{"name":"win","protocols":["two-bit","full-map"],"qs":[0.1],"ws":[0.3],"procs":[4],` +
		`"replicates":2,"refs_per_proc":200,"obs_window":256,"obs_topk":4}`
	if err := os.WriteFile(plan, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	if code := run([]string{"sweep", "-quiet", "-plan", plan, "-out", store}, new(bytes.Buffer), &stderr); code != 0 {
		t.Fatalf("sweep: exit %d: %s", code, stderr.String())
	}

	for _, tc := range []struct {
		name string
		args []string
	}{
		{"tables", []string{"tables"}},
		{"tables-4.1", []string{"tables", "-table", "4.1"}},
		{"tables-4.2", []string{"tables", "-table", "4.2"}},
		{"tables-compare", []string{"tables", "-compare"}},
		{"tables-cost", []string{"tables", "-cost", "-table", "4.1"}},
		{"tables-viability", []string{"tables", "-viability", "-table", "4.2"}},
		{"tables-sim-latency", []string{"tables", "-sim", "-refs", "200", "-latency"}},
		{"sim-compare", []string{"sim", "-compare", "-procs", "4", "-refs", "500"}},
		{"sim-barrier", []string{"sim", "-workload", "barrier", "-procs", "4", "-refs", "500"}},
		{"sim-json", []string{"sim", "-json", "-procs", "4", "-refs", "300", "-seed", "3"}},
		{"obs-csv", []string{"obs", "-plan", plan, "-store", store, "-format", "csv"}},
		{"obs-json", []string{"obs", "-plan", plan, "-store", store, "-format", "json"}},
		{"trace-list", []string{"trace", "list"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("twobit %q: exit %d: %s", tc.args, code, stderr.String())
			}
			path := filepath.Join("testdata", "golden", tc.name+".txt")
			if update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden file (set UPDATE_GOLDEN=1 to regenerate): %v", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("twobit %q drifted from %s:\n got\n%s\nwant\n%s", tc.args, path, stdout.Bytes(), want)
			}
		})
	}
}

package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// scalingPlan is the fixed campaign the scaling law is measured on:
// large enough that per-run orchestration cost is amortized and 8
// workers stay saturated, small enough to run in CI.
func scalingPlan() *Plan {
	p := &Plan{
		Name:        "scaling",
		Protocols:   []string{"two-bit", "full-map"},
		Qs:          []float64{0.05, 0.10},
		Ws:          []float64{0.2, 0.3},
		Procs:       []int{4, 8},
		Replicates:  2,
		RefsPerProc: 1000,
		RootSeed:    11,
	}
	p.Normalize()
	return p
}

// TestScalingLaw is the harness behind this package's scaling claim. It
// runs one fixed plan at worker widths 1, 2, 4 and 8 and asserts the
// two halves of "near-linear scaling without giving up determinism":
//
//  1. Correctness at every width, unconditionally: each width's store is
//     byte-identical to the workers=1 store, both through the ordered
//     whole-campaign path and through slice stores merged back into a
//     canonical store.
//
//  2. Speed, when the hardware can show it: with ≥4 CPUs, parallel
//     efficiency at 4 workers — T(1) / (4 · T(4)) — must be at least
//     0.70. On fewer CPUs the assertion is skipped (a 1-core machine
//     cannot exhibit parallel speedup, only the absence of slowdown),
//     but the byte-identity half still runs.
func TestScalingLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling law needs full runs")
	}
	p := scalingPlan()
	widths := []int{1, 2, 4, 8}

	// Correctness half: byte identity at every width …
	dir := t.TempDir()
	var want []byte
	elapsed := make(map[int]time.Duration, len(widths))
	for _, w := range widths {
		path := filepath.Join(dir, fmt.Sprintf("w%d.jsonl", w))
		begin := time.Now()
		runToFile(t, p, path, w)
		elapsed[w] = time.Since(begin)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if w == 1 {
			want = got
		} else if string(got) != string(want) {
			t.Fatalf("workers=%d store differs from workers=1 store", w)
		}
	}

	// … including through slice stores at several slice counts.
	for _, of := range []int{1, 2, 4} {
		sdir := filepath.Join(t.TempDir(), fmt.Sprintf("shards%d", of))
		for i := 0; i < of; i++ {
			runShardSlice(t, p, sdir, Slice{i, of}, 4, -1)
		}
		if got := mergeShards(t, p, sdir); string(got) != string(want) {
			t.Fatalf("%d-way sharded store differs from workers=1 store", of)
		}
	}

	// Speed half.
	if runtime.NumCPU() < 4 {
		t.Skipf("parallel efficiency needs ≥4 CPUs, have %d; byte-identity half passed", runtime.NumCPU())
	}
	const floor = 0.70
	best := 0.0
	for attempt := 0; attempt < 3; attempt++ {
		t1 := timeCampaign(t, p, 1)
		t4 := timeCampaign(t, p, 4)
		eff := t1.Seconds() / (4 * t4.Seconds())
		t.Logf("attempt %d: T(1)=%v T(4)=%v efficiency=%.2f", attempt, t1, t4, eff)
		if eff > best {
			best = eff
		}
		if best >= floor {
			break
		}
	}
	if best < floor {
		t.Errorf("parallel efficiency at 4 workers = %.2f, want ≥ %.2f (cold-store widths: %v)", best, floor, elapsed)
	}
}

// timeCampaign measures one in-memory execution of the plan.
func timeCampaign(t *testing.T, p *Plan, workers int) time.Duration {
	t.Helper()
	begin := time.Now()
	if _, err := Collect(p, workers); err != nil {
		t.Fatal(err)
	}
	return time.Since(begin)
}

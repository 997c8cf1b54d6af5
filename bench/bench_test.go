package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// go test ./... runs this package beside another one on a machine that
// may have two CPUs, and some of the repository's older tests are
// sensitive to losing theirs; the smoke keeps to one.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1)
	os.Exit(m.Run())
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5}
	if got := median(xs); got != 5 {
		t.Errorf("median(odd) = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(even) = %v, want 2.5", got)
	}
	if !reflect.DeepEqual(xs, []float64{9, 1, 7, 3, 5}) {
		t.Errorf("median reordered its input: %v", xs)
	}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 9}, {20, 1}, {21, 3}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 50)) {
		t.Error("an empty sample must not yield a number")
	}
}

// The highest percentile a sample supports is the highest with at least
// ten samples beyond it: 100 samples carry p90, 99 do not.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {40, 75}, {99, 75}, {100, 90}, {150, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: spanIteration, Start: 0, End: 100, Parent: -1},
		{Name: spanBuild, Start: 0, End: 10, Parent: 0},
		{Name: spanRun, Start: 10, End: 90, Parent: 0},
		{Name: spanPrologue, Start: 10, End: 12, Parent: 2},
		{Name: spanLoop, Start: 12, End: 85, Parent: 2},
		{Name: spanEpilogue, Start: 85, End: 90, Parent: 2},
		{Name: spanBodies, Start: 12, End: 62, Parent: 4, Count: 5},
		{Name: spanGen, Start: 12, End: 32, Parent: 6, Count: 4},
	}
	want := []int64{10, 10, 0, 2, 23, 5, 30, 20}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// Self times partition the roots: nothing is counted twice or lost.
	var sum int64
	for _, s := range selfTimes(spans) {
		sum += s
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the iteration's 100", sum)
	}
	sums := sumByIteration(spans)
	if len(sums) != 1 || sums[0].dur[spanLoop] != 73 || sums[0].count[spanBodies] != 5 {
		t.Errorf("sumByIteration = %+v", sums)
	}
}

// The generator shim and the kernel hook only watch: a traced run must
// execute the same events and encode to the same bytes as an untraced
// one — with a recorder attached too, whose own kernel hook ours chains.
func TestShimAndHookArePassive(t *testing.T) {
	for _, name := range []string{"observed-8p", "replay-kv", "spectrum-8p"} {
		def, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := setUp(def, 3, 50, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		for i, c := range p.in.cases {
			r, err := tr.runCase(c, -1, 0)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, c.name, err)
			}
			if r.sum != p.base[i].sum || r.events != p.base[i].events || uint64(tr.events) != r.events {
				t.Errorf("%s/%s: traced run diverged: %d events (hook saw %d), untraced %d; digests equal: %v",
					name, c.name, r.events, tr.events, p.base[i].events, r.sum == p.base[i].sum)
			}
			if want := int64(c.procs * (c.refs - 1)); tr.genCalls != want {
				t.Errorf("%s/%s: shim timed %d generator calls inside events, want %d", name, c.name, tr.genCalls, want)
			}
		}
		p.in.close()
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the program must not drift: same workloads with the
// same reasons, same metrics with the same units, directions and bounds.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(b.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var e2e, layer []benchmarkMetric
	for _, d := range registry {
		m := benchmarkMetric{Name: d.Name, Unit: d.Unit, Better: d.Better}
		switch d.Kind {
		case endToEnd:
			bound := d.Bound
			m.Bound = &bound
			e2e = append(e2e, m)
		case perLayer:
			layer = append(layer, m)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, e2e) {
		t.Errorf("end_to_end differs from the registry:\n json %+v\n code %+v", deref(b.EndToEnd), deref(e2e))
	}
	if !reflect.DeepEqual(b.PerLayer, layer) {
		t.Errorf("per_layer differs from the registry:\n json %+v\n code %+v", b.PerLayer, layer)
	}
}

func deref(ms []benchmarkMetric) []any {
	var out []any
	for _, m := range ms {
		out = append(out, []any{m.Name, m.Unit, m.Better, *m.Bound})
	}
	return out
}

// Every workload, start to finish at 1/50 of its size: both passes run,
// nothing fails, and the two result lines carry exactly the metrics
// BENCHMARK.json lists, each a finite number and no end-to-end one zero.
func TestSmokeAllWorkloads(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, def := range workloads {
		def := def
		t.Run(def.name, func(t *testing.T) {
			traces := t.TempDir()
			r, err := runWorkload(&def, options{seed: 1, trace: -1, traceDir: traces}, 50, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted != 4 {
				t.Errorf("correct=%v failed=%d attempted=%d, want true, 0, 3 timed + 1 traced", r.Correct, r.Failed, r.Attempted)
			}
			for _, part := range []struct {
				got  map[string]metric
				want []benchmarkMetric
				e2e  bool
			}{{r.only(endToEnd).Metrics, b.EndToEnd, true}, {r.only(perLayer).Metrics, b.PerLayer, false}} {
				if len(part.got) != len(part.want) {
					t.Errorf("result line has %d metrics, BENCHMARK.json lists %d", len(part.got), len(part.want))
				}
				for _, w := range part.want {
					m, ok := part.got[w.Name]
					switch {
					case !ok:
						t.Errorf("%s: listed in BENCHMARK.json, not reported", w.Name)
					case m.Unit != w.Unit:
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", w.Name, m.Value)
					case part.e2e && m.Value <= 0:
						t.Errorf("%s = %v: an end-to-end metric may never read 0", w.Name, m.Value)
					}
				}
			}
			if _, err := json.Marshal(r); err != nil {
				t.Errorf("result line does not marshal: %v", err)
			}
			raw, err := os.ReadFile(filepath.Join(traces, def.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct{ TraceEvents []map[string]any }
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("trace file: %d events, err %v", len(doc.TraceEvents), err)
			}
		})
	}
}

// golden.json covers every case of every workload, so a renamed case or
// a new workload cannot slip past the correctness check unpinned.
func TestGoldenCoversEveryCase(t *testing.T) {
	for _, def := range workloads {
		in, err := def.build(1, 50, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if want, err := goldenDigests(def.name, in.cases, 1, 1); err != nil || len(want) != len(in.cases) {
			t.Errorf("%s: %d of %d cases pinned, err %v", def.name, len(want), len(in.cases), err)
		}
		if in.close != nil {
			in.close()
		}
	}
}

// Command bench is the repository's one benchmark: six named workloads
// through whole simulated machines (and a whole campaign), end-to-end
// metrics in host time and in simulated time, and a ledger of per-layer
// metrics from a separate traced pass. README.md explains the
// workloads, the metrics and how they interact; BENCHMARK.json is the
// contract the regression driver holds this program to.
//
//	go run ./bench                      every workload, every metric
//	go run ./bench -workload storm-32p  one workload
//	go run ./bench -aa                  the whole set twice, compared
//	go run ./bench -json -trace-dir /tmp/traces
//
// Each workload runs in a child process of this binary, so heap and
// resident set do not leak from one workload into the next.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

type options struct {
	seed         uint64
	workload     string
	seconds      int
	trace        int
	jsonOut      bool
	traceDir     string
	aa           bool
	updateGolden bool
}

// Sizes of the passes. The traced pass is short because it exists to
// apportion time, not to resolve small differences.
const (
	tracedIters = 20
	setupRounds = 5
)

func main() {
	var o options
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: all, one child process each)")
	flag.IntVar(&o.seconds, "seconds", 0, "time-box the untraced pass to this many seconds instead of the workload's fixed iteration count")
	flag.IntVar(&o.trace, "trace", -1, "result line: 0 = untraced pass only, end-to-end metrics; 1 = both passes, BENCHMARK.json per-layer metrics; default both passes, every metric")
	flag.BoolVar(&o.jsonOut, "json", false, "print one JSON document (environment stamp + every workload's metrics) instead of text")
	flag.StringVar(&o.traceDir, "trace-dir", "", "write each workload's traced pass as Chrome trace_event JSON into this directory")
	flag.BoolVar(&o.aa, "aa", false, "run the whole set twice and fail if any end-to-end metric differs by more than its bound")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "rewrite bench/golden.json from this run (run from the repository root, seed 1)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	var err error
	switch {
	case o.workload != "":
		err = child(o)
	case o.aa:
		err = compareAA(o)
	default:
		var set map[string]report
		if set, err = runSet(o, !o.jsonOut); err == nil && o.jsonOut {
			err = json.NewEncoder(os.Stdout).Encode(map[string]any{"env": stamp(o.seed), "workloads": set})
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// stamp says what produced the numbers.
func stamp(seed uint64) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"commit": commit, "go": runtime.Version(), "os_arch": runtime.GOOS + "/" + runtime.GOARCH,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "seed": seed,
	}
}

// child runs one workload in this process, prints its metrics and ends
// with the result line.
func child(o options) error {
	def, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	// Scratch files stay inside the working directory (the checkout).
	dir, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if o.updateGolden {
		p, err := setUp(def, o.seed, 1, dir)
		if err != nil {
			return err
		}
		defer p.in.close()
		return updateGolden("bench/golden.json", def.name, p.in.cases, p.base)
	}
	r, err := runWorkload(def, o, 1, dir)
	if err != nil {
		return err
	}
	timed := r.Attempted
	if o.trace != 0 {
		timed-- // the traced pass is an attempt, not a timing sample
	}
	printReport(def, r, timed)
	switch o.trace {
	case 0:
		r = r.only(endToEnd)
	case 1:
		r = r.only(perLayer)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// runWorkload is a whole workload: set-up (several times, for a steady
// setup_s), the untraced closed loop the end-to-end metrics come from,
// then the traced pass. scale divides the workload's size; only tests
// pass anything but 1.
func runWorkload(def *workloadDef, o options, scale int, dir string) (report, error) {
	var p *prepared
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if p != nil {
			p.in.close()
		}
		t0 := time.Now()
		var err error
		if p, err = setUp(def, o.seed, scale, dir); err != nil {
			return report{}, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer p.in.close()
	r := report{Metrics: map[string]metric{}}
	iters := def.iters
	if scale > 1 {
		iters = 3
	}
	t := timedLoop(p.iterate, iters, float64(o.seconds))
	endToEndMetrics(&r, p, t, median(setups))
	r.put("system.iter_ms_p90", percentile(t.ms, 90))
	r.Attempted, r.Failed = len(t.ms), t.failed
	if o.trace != 0 {
		// The traced pass is one more attempt: it fails when the shim or
		// the hook turns out not to be passive.
		r.Attempted++
		if err := layerPass(&r, p, def, o.seed, o.traceDir); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: traced pass: %v\n", def.name, err)
			r.Failed++
		}
	}
	r.Correct = r.Failed == 0
	return r, nil
}

// printReport lists every metric by name with its unit, in registry
// order, under the kind it belongs to. n is the number of timing samples.
func printReport(def *workloadDef, r report, n int) {
	fmt.Printf("== %s: %s\n", def.name, def.why)
	fmt.Printf("   %d timed iterations, closed loop, 1 client; %d of %d attempts failed; highest percentile with >= 10 samples beyond it: p%g\n",
		n, r.Failed, r.Attempted, tailPercentile(n))
	for _, kind := range []struct {
		k     metricKind
		title string
	}{{endToEnd, "end to end (untraced pass)"}, {perLayer, "per layer (traced pass + isolated layers)"}, {extra, "this workload only"}} {
		first := true
		for _, d := range registry {
			m, ok := r.Metrics[d.Name]
			if !ok || d.Kind != kind.k {
				continue
			}
			if first {
				fmt.Printf("  -- %s\n", kind.title)
				first = false
			}
			fmt.Printf("  %-36s %16.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
}

// runSet runs every workload in its own child process and collects the
// result lines. With show, each child's text goes to standard output as
// it arrives.
func runSet(o options, show bool) (map[string]report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if show {
		fmt.Printf("bench: %v\n", stamp(o.seed))
	}
	set := map[string]report{}
	for _, def := range workloads {
		args := []string{"-workload", def.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace-dir", o.traceDir}
		if o.updateGolden {
			args = append(args, "-update-golden")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output() // waits for the child to end
		if err != nil {
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
		if o.updateGolden {
			continue
		}
		text := strings.TrimRight(string(out), "\n")
		cut := strings.LastIndexByte(text, '\n')
		var r report
		if err := json.Unmarshal([]byte(text[cut+1:]), &r); err != nil {
			return nil, fmt.Errorf("%s: result line: %w", def.name, err)
		}
		if show && cut >= 0 {
			fmt.Println(text[:cut])
		}
		set[def.name] = r
	}
	return set, nil
}

// compareAA runs the set twice with the same code and seed, prints the
// end-to-end metrics side by side and fails if the two sets disagree by
// more than the benchmark's own bounds: the benchmark's test of itself.
func compareAA(o options) error {
	a, err := runSet(o, false)
	if err != nil {
		return err
	}
	b, err := runSet(o, false)
	if err != nil {
		return err
	}
	fmt.Printf("bench -aa: %v\n", stamp(o.seed))
	fmt.Printf("%-12s %-22s %16s %16s %9s %7s\n", "workload", "metric", "set A", "set B", "differ", "bound")
	bad := 0
	for _, def := range workloads {
		ra, rb := a[def.name], b[def.name]
		if ra.Failed+rb.Failed > 0 {
			fmt.Printf("%-12s failed iterations: A %d of %d, B %d of %d\n", def.name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			bad++
		}
		for _, d := range registry {
			if d.Kind != endToEnd {
				continue
			}
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			differ := math.Abs(va-vb) / math.Min(va, vb)
			bound, verdict := d.Bound, ""
			if d.Exact {
				bound = 0
			}
			if differ > bound {
				verdict = "  FAIL"
				bad++
			}
			fmt.Printf("%-12s %-22s %16.6g %16.6g %8.2f%% %6.0f%%%s\n", def.name, d.Name, va, vb, 100*differ, 100*bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("-aa: %d end-to-end metrics disagree between two runs of the same code", bad)
	}
	return nil
}

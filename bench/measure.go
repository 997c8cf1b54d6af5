package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"twobit/internal/sweep"
	"twobit/internal/system"
)

// golden.json pins sha256(Results.EncodeStable()) per workload and case
// at seed 1, full scale. Regenerate with -update-golden after a change
// that is meant to move simulated results.
//
//go:embed golden.json
var goldenJSON []byte

type digest [sha256.Size]byte

// caseResult is what one machine run leaves behind.
type caseResult struct {
	res    system.Results
	events uint64 // Kernel.Processed()
	sum    digest
	wall   time.Duration // build + run + encode
}

// runCase builds, runs and encodes one case the way a caller of the
// library would. mod, when non-nil, adjusts the configuration (the
// layer pass's A/B twins: oracle off, recorder off).
func runCase(c machineCase, mod func(*system.Config)) (caseResult, error) {
	cfg, gen := c.mk()
	if mod != nil {
		mod(&cfg)
	}
	t0 := time.Now()
	m, err := system.New(cfg, gen)
	if err != nil {
		return caseResult{}, err
	}
	res, err := m.Run(c.refs)
	if err != nil {
		return caseResult{}, err
	}
	enc, err := res.EncodeStable()
	if err != nil {
		return caseResult{}, err
	}
	return caseResult{res: res, events: m.Kernel().Processed(), sum: sha256.Sum256(enc), wall: time.Since(t0)}, nil
}

// runCases is one iteration of a machine workload. want, when non-nil,
// is the digest each case must reproduce.
func runCases(cases []machineCase, want []digest, mod func(*system.Config)) ([]caseResult, error) {
	out := make([]caseResult, len(cases))
	for i, c := range cases {
		r, err := runCase(c, mod)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		if want != nil && r.sum != want[i] {
			return nil, fmt.Errorf("%s: results digest %s, want %s", c.name, hex.EncodeToString(r.sum[:8]), hex.EncodeToString(want[i][:8]))
		}
		out[i] = r
	}
	return out, nil
}

// sweepPass is one iteration of campaign: the plan through sweep.Execute
// on one worker, each record marshalled into a reused buffer (what
// cmd/sweep's store does, minus the fsync) and its results held to want.
// It returns the bytes marshalled.
func sweepPass(plan *sweep.Plan, want []digest, workers int, buf *bytes.Buffer) (int, error) {
	enc := json.NewEncoder(buf)
	total := 0
	var bad error
	err := sweep.Execute(plan, workers, 0, func(rec sweep.Record) error {
		buf.Reset()
		if err := enc.Encode(rec); err != nil {
			return err
		}
		total += buf.Len()
		switch {
		case bad != nil:
		case rec.Err != "":
			bad = fmt.Errorf("run-%d: %s", rec.RunID, rec.Err)
		case sha256.Sum256(rec.Results) != want[rec.RunID]:
			bad = fmt.Errorf("run-%d: results digest differs from the harness's own run of the point", rec.RunID)
		}
		return nil
	})
	if err == nil {
		err = bad
	}
	return total, err
}

// goldenDigests returns the pinned digests for a workload's cases, or
// nil when golden.json does not cover this workload, seed and scale.
func goldenDigests(name string, cases []machineCase, seed uint64, scale int) ([]digest, error) {
	if seed != 1 || scale != 1 {
		return nil, nil
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	pinned, ok := all[name]
	if !ok {
		return nil, nil
	}
	out := make([]digest, len(cases))
	for i, c := range cases {
		raw, err := hex.DecodeString(pinned[c.name])
		if err != nil || len(raw) != len(out[i]) {
			return nil, fmt.Errorf("golden.json: %s/%s: no usable digest", name, c.name)
		}
		copy(out[i][:], raw)
	}
	return out, nil
}

// updateGolden rewrites one workload's section of bench/golden.json.
func updateGolden(path, name string, cases []machineCase, base []caseResult) error {
	all := map[string]map[string]string{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	all[name] = map[string]string{}
	for i, c := range cases {
		all[name][c.name] = hex.EncodeToString(base[i].sum[:])
	}
	out, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// prepared is a workload after set-up: built, warmed, and with the
// digests every later iteration must reproduce.
type prepared struct {
	in    *instance
	scale int          // 1, or what a test divided the workload's size by
	base  []caseResult // the warm-up iteration
	want  []digest
	// iterate is one untraced iteration as the end-to-end metrics time it.
	iterate func() error
	// recordBytes is campaign's mean marshalled record size.
	recordBytes float64
}

// setUp builds the workload's inputs (trace synthesis), loads the golden
// digests and runs one warm-up iteration. Everything in here is what
// setup_s times.
func setUp(def *workloadDef, seed uint64, scale int, dir string) (*prepared, error) {
	in, err := def.build(seed, scale, dir)
	if err != nil {
		return nil, err
	}
	if in.close == nil {
		in.close = func() {}
	}
	in.dir = dir
	p := &prepared{in: in, scale: scale}
	if p.base, err = runCases(in.cases, nil, nil); err != nil {
		in.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// Off the golden's seed and scale the check is that every iteration
	// reproduces the first. On it, a run that drifted from golden.json
	// fails every iteration rather than the set-up, so the metrics still
	// print beside failed_frac = 1.
	if p.want, err = goldenDigests(def.name, in.cases, seed, scale); err != nil {
		in.close()
		return nil, err
	}
	if p.want == nil {
		for _, r := range p.base {
			p.want = append(p.want, r.sum)
		}
	}
	p.iterate = func() error { _, err := runCases(in.cases, p.want, nil); return err }
	if in.plan != nil {
		var buf bytes.Buffer
		p.iterate = func() error { _, err := sweepPass(in.plan, p.want, 1, &buf); return err }
		n, err := sweepPass(in.plan, p.want, 1, &buf)
		if err != nil {
			in.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		p.recordBytes = float64(n) / float64(len(in.cases))
	}
	return p, nil
}

// totals are the per-iteration sums every per-reference metric divides by.
type totals struct {
	refs, events, runs float64
}

func (p *prepared) totals() totals {
	var t totals
	for _, r := range p.base {
		t.refs += float64(r.res.Refs)
		t.events += float64(r.events)
	}
	t.runs = float64(len(p.base))
	return t
}

// timed is the outcome of a closed loop of iterations.
type timed struct {
	ms     []float64 // wall time of each iteration
	failed int
	mem    memDelta
}

type memDelta struct{ mallocs, bytes float64 }

// timedLoop issues iterations back to back from this one goroutine —
// a closed loop with one client — until n have run, or, when seconds > 0,
// until that much time has passed. The first failure is printed.
func timedLoop(iterate func() error, n int, seconds float64) timed {
	var out timed
	out.ms = make([]float64, 0, 1024)
	runtime.GC() // every pass starts from a collected heap
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; (seconds > 0 && time.Since(start).Seconds() < seconds) || (seconds <= 0 && i < n); i++ {
		t0 := time.Now()
		err := iterate()
		out.ms = append(out.ms, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			if out.failed == 0 {
				fmt.Fprintf(os.Stderr, "bench: iteration %d failed: %v\n", i, err)
			}
			out.failed++
		}
	}
	runtime.ReadMemStats(&m1)
	out.mem = memDelta{float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)}
	return out
}

// endToEndMetrics turns the untraced pass into the end-to-end metrics.
func endToEndMetrics(r *report, p *prepared, t timed, setupS float64) {
	tot := p.totals()
	iters := float64(len(t.ms))
	sec := median(t.ms) / 1e3
	r.put("refs_per_s", tot.refs/sec)
	r.put("iter_ms_p50", sec*1e3)
	r.put("ns_per_event", sec*1e9/tot.events)
	r.put("runs_per_s", tot.runs/sec)
	r.put("events_per_ref", tot.events/tot.refs)
	r.put("allocs_per_ref", t.mem.mallocs/iters/tot.refs)
	r.put("alloc_bytes_per_ref", t.mem.bytes/iters/tot.refs)
	r.put("peak_rss_mb", peakRSSMB())
	// The paper's units, summed over the iteration's machines: elapsed
	// cycles × processors per reference, and commands received per
	// reference issued.
	var cycles, cmds float64
	for _, c := range p.base {
		cycles += float64(c.res.Cycles) * float64(c.res.Procs)
		cmds += c.res.CommandsPerCachePerRef * float64(c.res.Refs)
	}
	r.put("cycles_per_ref", cycles/tot.refs)
	r.put("cmds_per_ref", cmds/tot.refs)
	r.put("setup_s", setupS)
	r.put("failed_frac", float64(t.failed)/iters)
}

// peakRSSMB is the process's resident-set high-water mark: VmHWM where
// /proc has it, the runtime's view of memory obtained from the OS
// elsewhere.
func peakRSSMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

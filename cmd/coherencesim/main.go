// Command coherencesim runs the full-system simulator.
//
// Single runs:
//
//	coherencesim -protocol two-bit -procs 16 -q 0.05 -w 0.2 -refs 20000
//	coherencesim -workload locks -json   # structured kernel, JSON results
//
// Comparisons and sweeps:
//
//	coherencesim -compare                # all seven protocols, same workload
//	coherencesim -sweep sharing          # two-bit vs full map across sharing levels
//	coherencesim -sweep n                # overhead vs processor count
//	coherencesim -sweep tb               # translation-buffer size sweep (§4.4)
//
// Trace-driven runs:
//
//	coherencesim -record t.mtrc2         # stream the workload to an MTRC2 trace
//	coherencesim -trace t.mtrc2          # run from a trace file, MTRC2 or
//	                                     # text; MTRC2 streams from disk
//
// A run from a -record capture prints what the live run prints.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"twobit"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options holds the parsed flags.
type options struct {
	protoName, netName, sweep, wlName, recordTo, traceFile string
	procs, refs, tbSize                                    int
	q, w, skew                                             float64
	seed                                                   uint64
	compare, jsonOut                                       bool
	set                                                    map[string]bool // flags given on the command line
}

// usageError is a flag value the command cannot use: exit status 2.
type usageError struct{ error }

// run is the command: it parses args, runs what they ask for, writes the
// result to stdout and any error to stderr, and returns the exit status:
// 0, 1 on an error, 2 on a bad flag or flag value.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("coherencesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.protoName, "protocol", "two-bit", "protocol: two-bit, full-map, full-map+E, classical, duplication, write-once, software")
	fs.IntVar(&o.procs, "procs", 8, "number of processor-cache pairs (≤ 64)")
	fs.IntVar(&o.refs, "refs", 20000, "references per processor")
	fs.Float64Var(&o.q, "q", 0.05, "probability a reference is shared")
	fs.Float64Var(&o.w, "w", 0.2, "probability a shared reference is a write")
	fs.StringVar(&o.netName, "net", "crossbar", "network: crossbar, bus, omega")
	fs.IntVar(&o.tbSize, "tb", 0, "translation buffer entries (two-bit only, 0 = off)")
	fs.Uint64Var(&o.seed, "seed", 1, "simulation seed")
	fs.BoolVar(&o.compare, "compare", false, "run every protocol on the same workload")
	fs.StringVar(&o.sweep, "sweep", "", "sweep: sharing, n, or tb")
	fs.StringVar(&o.wlName, "workload", "shared-private", "workload: shared-private, zipf, matmul, prodcons, locks, barrier, migration")
	fs.Float64Var(&o.skew, "skew", 1.2, "Zipf exponent for -workload zipf")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the single-run result as JSON")
	fs.StringVar(&o.recordTo, "record", "", "stream the workload to this MTRC2 trace file instead of simulating")
	fs.StringVar(&o.traceFile, "trace", "", "run from this trace file, MTRC2 or text; -procs defaults to the trace's streams")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	o.set = make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	if err := o.exec(stdout); err != nil {
		fmt.Fprintf(stderr, "coherencesim: %v\n", err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	return 0
}

// exec runs the parsed command.
func (o *options) exec(out io.Writer) error {
	p, err := twobit.ParseProtocol(o.protoName)
	if err != nil {
		return usageError{fmt.Errorf("unknown protocol %q", o.protoName)}
	}
	nk, err := twobit.ParseNetKind(o.netName)
	if err != nil {
		return usageError{fmt.Errorf("unknown network %q", o.netName)}
	}
	switch {
	case o.recordTo != "":
		return o.record(out)
	case o.compare:
		if err := o.onlyReads("compare", "procs", "refs", "q", "w", "seed"); err != nil {
			return err
		}
		return runCompare(out, o.procs, o.refs, o.q, o.w, o.seed)
	case o.sweep != "":
		if err := o.onlyReads("sweep", "refs", "q", "w", "seed"); err != nil {
			return err
		}
		return runSweep(out, o.sweep, o.refs, o.q, o.w, o.seed)
	}
	var src twobit.TraceSource
	if o.traceFile != "" {
		if src, err = twobit.OpenTraceFile(o.traceFile); err != nil {
			return err
		}
		defer twobit.CloseTraceSource(src)
		if !o.set["procs"] {
			o.procs = src.Procs()
		}
	}
	cfg := twobit.DefaultConfig(p, o.procs)
	if o.set["net"] { // unset, the protocol's default network stands
		cfg.Net = nk
	}
	cfg.Seed = o.seed
	cfg.TranslationBufferSize = o.tbSize
	var res twobit.Results
	if src != nil {
		res, err = twobit.RunFromTrace(cfg, src, o.refs)
	} else {
		var g twobit.Generator
		if g, err = o.workload(); err != nil {
			return err
		}
		res, err = simulate(cfg, g, o.refs)
	}
	if err != nil {
		return err
	}
	if !o.jsonOut {
		fmt.Fprintln(out, res)
		return nil
	}
	js, err := res.JSON()
	fmt.Fprintln(out, js)
	return err
}

// onlyReads refuses, naming it, the first flag given on the command line
// that mode neither is nor reads: a flag the mode would silently ignore.
func (o *options) onlyReads(mode string, reads ...string) error {
	given := make([]string, 0, len(o.set))
	for name := range o.set {
		given = append(given, name)
	}
	sort.Strings(given)
	for _, name := range given {
		if name != mode && !slices.Contains(reads, name) {
			return usageError{fmt.Errorf("-%s does not read -%s", mode, name)}
		}
	}
	return nil
}

// record streams the selected workload to o.recordTo as an MTRC2 trace,
// leaving no file behind if it fails.
func (o *options) record(out io.Writer) error {
	g, err := o.workload()
	if err != nil {
		return err
	}
	f, err := os.Create(o.recordTo)
	if err != nil {
		return err
	}
	err = twobit.StreamTrace(f, g, o.procs, o.refs)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(o.recordTo)
		return err
	}
	fmt.Fprintf(out, "recorded %d procs × %d refs to %s\n", o.procs, o.refs, o.recordTo)
	return nil
}

// workload constructs the selected generator.
func (o *options) workload() (twobit.Generator, error) {
	procs, seed := o.procs, o.seed
	switch o.wlName {
	case "shared-private":
		return gen(procs, o.q, o.w, seed), nil
	case "zipf":
		return twobit.NewZipfSharedWorkload(twobit.ZipfSharedConfig{
			Procs: procs, SharedBlocks: 16, Skew: o.skew, Q: o.q, W: o.w,
			PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 64, ColdBlocks: 512, Seed: seed,
		}), nil
	case "matmul":
		return twobit.NewMatMulWorkload(procs, 32, 32, 16), nil
	case "prodcons":
		return twobit.NewProducerConsumerWorkload(procs, 16), nil
	case "locks":
		return twobit.NewLockContentionWorkload(procs, 8, seed), nil
	case "barrier":
		return twobit.NewBarrierWorkload(procs, 4, 3), nil
	case "migration":
		return twobit.NewMigrationWorkload(procs, procs, 32, 500, seed), nil
	}
	return nil, usageError{fmt.Errorf("unknown workload %q", o.wlName)}
}

func gen(procs int, q, w float64, seed uint64) twobit.Generator {
	return twobit.NewSharedPrivateWorkload(twobit.SharedPrivateConfig{
		Procs: procs, SharedBlocks: 16, Q: q, W: w,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 64, ColdBlocks: 512, Seed: seed,
	})
}

// simulate runs a machine of cfg on g for refs references per processor.
func simulate(cfg twobit.Config, g twobit.Generator, refs int) (twobit.Results, error) {
	m, err := twobit.NewMachine(cfg, g)
	if err != nil {
		return twobit.Results{}, err
	}
	return m.Run(refs)
}

func runCompare(out io.Writer, procs, refs int, q, w float64, seed uint64) error {
	fmt.Fprintf(out, "protocol comparison: n=%d, q=%.2f, w=%.2f, %d refs/proc\n\n", procs, q, w, refs)
	fmt.Fprintf(out, "%-12s %10s %12s %12s %12s %12s\n",
		"protocol", "cycles/ref", "cmds/ref", "useless/ref", "stolen/ref", "netmsgs")
	for _, p := range []twobit.Protocol{
		twobit.TwoBit, twobit.FullMap, twobit.FullMapExclusive, twobit.Classical,
		twobit.Duplication, twobit.WriteOnce, twobit.Software,
	} {
		cfg := twobit.DefaultConfig(p, procs)
		cfg.Seed = seed
		res, err := simulate(cfg, gen(procs, q, w, seed), refs)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-12s %10.2f %12.4f %12.4f %12.4f %12d\n",
			p, res.CyclesPerRef, res.CommandsPerCachePerRef,
			res.UselessPerCachePerRef, res.StolenCyclesPerRef, res.Net.Messages.Value())
	}
	return nil
}

func runSweep(out io.Writer, kind string, refs int, q, w float64, seed uint64) error {
	switch kind {
	case "sharing":
		fmt.Fprintf(out, "two-bit vs full-map overhead across sharing levels (n=8, w=%.2f)\n\n", w)
		fmt.Fprintf(out, "%-10s %14s %14s %16s\n", "q", "two-bit c/ref", "full-map c/ref", "useless/ref(2b)")
		for _, qv := range []float64{0.0, 0.01, 0.05, 0.10, 0.20} {
			two, err2 := simulate(twobit.DefaultConfig(twobit.TwoBit, 8), gen(8, qv, w, seed), refs)
			full, errF := simulate(twobit.DefaultConfig(twobit.FullMap, 8), gen(8, qv, w, seed), refs)
			if err := errors.Join(err2, errF); err != nil {
				return err
			}
			fmt.Fprintf(out, "%-10.2f %14.4f %14.4f %16.4f\n",
				qv, two.CommandsPerCachePerRef, full.CommandsPerCachePerRef, two.UselessPerCachePerRef)
		}
	case "n":
		fmt.Fprintf(out, "two-bit overhead vs processor count (q=%.2f, w=%.2f); analytic (n-1)T_SUM rightmost\n\n", q, w)
		fmt.Fprintf(out, "%-6s %14s %14s %14s\n", "n", "sim cmds/ref", "sim useless", "model (mod.)")
		for _, n := range []int{4, 8, 16, 32} {
			res, err := simulate(twobit.DefaultConfig(twobit.TwoBit, n), gen(n, q, w, seed), refs)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-6d %14.4f %14.4f %14.4f\n",
				n, res.CommandsPerCachePerRef, res.UselessPerCachePerRef, twobit.Overhead41(twobit.ModerateSharing, n, w))
		}
	case "tb":
		fmt.Fprintf(out, "translation buffer sweep (§4.4): n=8, q=%.2f, w=%.2f\n\n", q, w)
		fmt.Fprintf(out, "%-8s %12s %12s %12s\n", "entries", "TB hit", "broadcasts", "cmds/ref")
		for _, size := range []int{0, 4, 16, 64, 256, 1024} {
			cfg := twobit.DefaultConfig(twobit.TwoBit, 8)
			cfg.TranslationBufferSize = size
			cfg.Seed = seed
			res, err := simulate(cfg, gen(8, q, w, seed), refs)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-8d %12.3f %12d %12.4f\n",
				size, res.TBHitRatio, res.Broadcasts, res.CommandsPerCachePerRef)
		}
	default:
		return usageError{fmt.Errorf("unknown sweep %q (want sharing, n or tb)", kind)}
	}
	return nil
}

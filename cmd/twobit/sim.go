package main

import (
	"fmt"
	"io"

	"twobit"
)

// simOptions holds sim's parsed flags.
type simOptions struct {
	flags
	protoName, netName, wlName, recordTo, traceFile string
	procs, refs, tbSize                             int
	q, w, skew                                      float64
	seed                                            uint64
	compare, jsonOut                                bool
}

// runSim is twobit sim, the full-system simulator: one run of a workload
// (-json for structured results), all seven protocols on the §4.2 stream
// (-compare), or a run from a trace file, MTRC2 streamed from disk or
// text. A run from a -record capture prints what the live run prints.
func runSim(args []string, stdout, stderr io.Writer) error {
	o := simOptions{flags: newFlags("sim", stderr)}
	o.StringVar(&o.protoName, "protocol", "two-bit", "protocol: two-bit, full-map, full-map+E, classical, duplication, write-once, software")
	o.IntVar(&o.procs, "procs", 8, "number of processor-cache pairs (≤ 64)")
	o.IntVar(&o.refs, "refs", 20000, "references per processor")
	o.Float64Var(&o.q, "q", 0.05, "probability a reference is shared")
	o.Float64Var(&o.w, "w", 0.2, "probability a shared reference is a write")
	o.StringVar(&o.netName, "net", "crossbar", "network: crossbar, bus, omega")
	o.IntVar(&o.tbSize, "tb", 0, "translation buffer entries (two-bit only, 0 = off)")
	o.Uint64Var(&o.seed, "seed", 1, "simulation seed")
	o.BoolVar(&o.compare, "compare", false, "run every protocol on the same workload")
	o.StringVar(&o.wlName, "workload", "shared-private", "workload: shared-private, zipf, matmul, prodcons, locks, barrier, migration")
	o.Float64Var(&o.skew, "skew", 1.2, "Zipf exponent for -workload zipf")
	o.BoolVar(&o.jsonOut, "json", false, "emit the single-run result as JSON")
	o.StringVar(&o.recordTo, "record", "", "stream the workload to this MTRC2 trace file instead of simulating")
	o.StringVar(&o.traceFile, "trace", "", "run from this trace file, MTRC2 or text; -procs defaults to the trace's streams")
	if err := o.parse(args); err != nil {
		return err
	}
	return o.exec(stdout)
}

// exec runs the parsed command.
func (o *simOptions) exec(out io.Writer) error {
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
		if err := o.onlyReads("-compare", "compare", "procs", "refs", "q", "w", "seed"); err != nil {
			return err
		}
		return runCompare(out, o.procs, o.refs, o.q, o.w, o.seed)
	}
	var src twobit.TraceSource
	if o.traceFile != "" {
		if src, err = twobit.OpenTraceFile(o.traceFile); err != nil {
			return err
		}
		defer twobit.CloseTraceSource(src)
		if !o.given("procs") {
			o.procs = src.Procs()
		}
	}
	cfg := twobit.DefaultConfig(p, o.procs)
	if o.given("net") { // unset, the protocol's default network stands
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
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, js)
	return err
}

// record streams the selected workload to o.recordTo as an MTRC2 trace,
// leaving no file behind if it fails.
func (o *simOptions) record(out io.Writer) error {
	g, err := o.workload()
	if err != nil {
		return err
	}
	if err := writeFile(o.recordTo, func(w io.Writer) error { return twobit.StreamTrace(w, g, o.procs, o.refs) }); err != nil {
		return err
	}
	fmt.Fprintf(out, "recorded %d procs × %d refs to %s\n", o.procs, o.refs, o.recordTo)
	return nil
}

// workload constructs the selected generator.
func (o *simOptions) workload() (twobit.Generator, error) {
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

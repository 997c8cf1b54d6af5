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
//	coherencesim -record trace.bin       # capture the workload to a file
//	coherencesim -replay trace.bin       # drive the machine from a capture
//	coherencesim -trace t.mtrc2          # run from any trace file (text,
//	                                     # varint, or chunked — sniffed);
//	                                     # chunked traces stream from disk
package main

import (
	"flag"
	"fmt"
	"os"

	"twobit"
)

func main() {
	var (
		protoName = flag.String("protocol", "two-bit", "protocol: two-bit, full-map, full-map+E, classical, duplication, write-once, software")
		procs     = flag.Int("procs", 8, "number of processor-cache pairs (≤ 64)")
		refs      = flag.Int("refs", 20000, "references per processor")
		q         = flag.Float64("q", 0.05, "probability a reference is shared")
		w         = flag.Float64("w", 0.2, "probability a shared reference is a write")
		netName   = flag.String("net", "crossbar", "network: crossbar, bus, omega")
		tbSize    = flag.Int("tb", 0, "translation buffer entries (two-bit only, 0 = off)")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		compare   = flag.Bool("compare", false, "run every protocol on the same workload")
		sweep     = flag.String("sweep", "", "sweep: sharing, n, or tb")
		wlName    = flag.String("workload", "shared-private", "workload: shared-private, zipf, matmul, prodcons, locks, barrier, migration")
		skew      = flag.Float64("skew", 1.2, "Zipf exponent for -workload zipf")
		jsonOut   = flag.Bool("json", false, "emit the single-run result as JSON")
		recordTo  = flag.String("record", "", "capture the workload to this trace file instead of simulating")
		replayOf  = flag.String("replay", "", "drive the machine from this trace file")
		traceFile = flag.String("trace", "", "run from this trace file of any format (text, varint, or chunked); -procs defaults to the trace's streams")
	)
	flag.Parse()

	if *recordTo != "" {
		g := buildWorkload(*wlName, *procs, *q, *w, *skew, *seed)
		tr := twobit.RecordTrace(g, *procs, *refs)
		f, err := os.Create(*recordTo)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := tr.WriteBinary(f); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d procs × %d refs to %s\n", *procs, *refs, *recordTo)
		return
	}

	switch {
	case *compare:
		runCompare(*procs, *refs, *q, *w, *seed)
	case *sweep != "":
		runSweep(*sweep, *refs, *q, *w, *seed)
	default:
		p, err := twobit.ParseProtocol(*protoName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coherencesim: unknown protocol %q\n", *protoName)
			os.Exit(2)
		}
		nk, err := twobit.ParseNetKind(*netName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coherencesim: unknown network %q\n", *netName)
			os.Exit(2)
		}
		var src twobit.TraceSource
		if *traceFile != "" {
			var err error
			src, err = twobit.OpenTraceFile(*traceFile)
			if err != nil {
				fatal(err)
			}
			defer twobit.CloseTraceSource(src)
			procsSet := false
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "procs" {
					procsSet = true
				}
			})
			if !procsSet {
				*procs = src.Procs()
				if *procs > 64 {
					*procs = 64 // directory word width caps a machine
				}
			}
		}
		cfg := twobit.DefaultConfig(p, *procs)
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "net" { // unset, the protocol's default network stands
				cfg.Net = nk
			}
		})
		cfg.Seed = *seed
		cfg.TranslationBufferSize = *tbSize
		if src != nil {
			res, err := twobit.RunFromTrace(cfg, src, *refs)
			if err != nil {
				fatal(err)
			}
			printResult(res, *jsonOut)
			return
		}
		var g twobit.Generator
		if *replayOf != "" {
			f, err := os.Open(*replayOf)
			if err != nil {
				fatal(err)
			}
			tr, err := twobit.ReadTraceBinary(f)
			f.Close()
			if err != nil {
				fatal(err)
			}
			if tr.Procs() < *procs {
				fatal(fmt.Errorf("trace has %d processor streams, need %d", tr.Procs(), *procs))
			}
			g = tr.Generator()
		} else {
			g = buildWorkload(*wlName, *procs, *q, *w, *skew, *seed)
		}
		printResult(runWith(cfg, g, *refs), *jsonOut)
	}
}

func printResult(res twobit.Results, jsonOut bool) {
	if jsonOut {
		js, err := res.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(js)
		return
	}
	fmt.Println(res)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "coherencesim: %v\n", err)
	os.Exit(1)
}

// buildWorkload constructs the selected generator.
func buildWorkload(name string, procs int, q, w, skew float64, seed uint64) twobit.Generator {
	switch name {
	case "shared-private":
		return gen(procs, q, w, seed)
	case "zipf":
		return twobit.NewZipfSharedWorkload(twobit.ZipfSharedConfig{
			Procs: procs, SharedBlocks: 16, Skew: skew, Q: q, W: w,
			PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 64, ColdBlocks: 512, Seed: seed,
		})
	case "matmul":
		return twobit.NewMatMulWorkload(procs, 32, 32, 16)
	case "prodcons":
		return twobit.NewProducerConsumerWorkload(procs, 16)
	case "locks":
		return twobit.NewLockContentionWorkload(procs, 8, seed)
	case "barrier":
		return twobit.NewBarrierWorkload(procs, 4, 3)
	case "migration":
		return twobit.NewMigrationWorkload(procs, procs, 32, 500, seed)
	default:
		fatal(fmt.Errorf("unknown workload %q", name))
		return nil
	}
}

func runWith(cfg twobit.Config, g twobit.Generator, refs int) twobit.Results {
	m, err := twobit.NewMachine(cfg, g)
	if err != nil {
		fatal(err)
	}
	res, err := m.Run(refs)
	if err != nil {
		fatal(err)
	}
	return res
}

func gen(procs int, q, w float64, seed uint64) twobit.Generator {
	return twobit.NewSharedPrivateWorkload(twobit.SharedPrivateConfig{
		Procs: procs, SharedBlocks: 16, Q: q, W: w,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 64, ColdBlocks: 512, Seed: seed,
	})
}

func run(cfg twobit.Config, procs, refs int, q, w float64, seed uint64) twobit.Results {
	m, err := twobit.NewMachine(cfg, gen(procs, q, w, seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "coherencesim: %v\n", err)
		os.Exit(1)
	}
	res, err := m.Run(refs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coherencesim: %v\n", err)
		os.Exit(1)
	}
	return res
}

func runCompare(procs, refs int, q, w float64, seed uint64) {
	fmt.Printf("protocol comparison: n=%d, q=%.2f, w=%.2f, %d refs/proc\n\n", procs, q, w, refs)
	fmt.Printf("%-12s %10s %12s %12s %12s %12s\n",
		"protocol", "cycles/ref", "cmds/ref", "useless/ref", "stolen/ref", "netmsgs")
	for _, p := range []twobit.Protocol{
		twobit.TwoBit, twobit.FullMap, twobit.FullMapExclusive, twobit.Classical,
		twobit.Duplication, twobit.WriteOnce, twobit.Software,
	} {
		cfg := twobit.DefaultConfig(p, procs)
		cfg.Seed = seed
		res := run(cfg, procs, refs, q, w, seed)
		fmt.Printf("%-12s %10.2f %12.4f %12.4f %12.4f %12d\n",
			p, res.CyclesPerRef, res.CommandsPerCachePerRef,
			res.UselessPerCachePerRef, res.StolenCyclesPerRef, res.Net.Messages.Value())
	}
}

func runSweep(kind string, refs int, q, w float64, seed uint64) {
	switch kind {
	case "sharing":
		fmt.Printf("two-bit vs full-map overhead across sharing levels (n=8, w=%.2f)\n\n", w)
		fmt.Printf("%-10s %14s %14s %16s\n", "q", "two-bit c/ref", "full-map c/ref", "useless/ref(2b)")
		for _, qv := range []float64{0.0, 0.01, 0.05, 0.10, 0.20} {
			two := run(twobit.DefaultConfig(twobit.TwoBit, 8), 8, refs, qv, w, seed)
			full := run(twobit.DefaultConfig(twobit.FullMap, 8), 8, refs, qv, w, seed)
			fmt.Printf("%-10.2f %14.4f %14.4f %16.4f\n",
				qv, two.CommandsPerCachePerRef, full.CommandsPerCachePerRef, two.UselessPerCachePerRef)
		}
	case "n":
		fmt.Printf("two-bit overhead vs processor count (q=%.2f, w=%.2f); analytic (n-1)T_SUM rightmost\n\n", q, w)
		fmt.Printf("%-6s %14s %14s %14s\n", "n", "sim cmds/ref", "sim useless", "model (mod.)")
		for _, n := range []int{4, 8, 16, 32} {
			res := run(twobit.DefaultConfig(twobit.TwoBit, n), n, refs, q, w, seed)
			analytic := twobit.Overhead41(twobit.ModerateSharing, n, w)
			fmt.Printf("%-6d %14.4f %14.4f %14.4f\n",
				n, res.CommandsPerCachePerRef, res.UselessPerCachePerRef, analytic)
		}
	case "tb":
		fmt.Printf("translation buffer sweep (§4.4): n=8, q=%.2f, w=%.2f\n\n", q, w)
		fmt.Printf("%-8s %12s %12s %12s\n", "entries", "TB hit", "broadcasts", "cmds/ref")
		for _, size := range []int{0, 4, 16, 64, 256, 1024} {
			cfg := twobit.DefaultConfig(twobit.TwoBit, 8)
			cfg.TranslationBufferSize = size
			cfg.Seed = seed
			res := run(cfg, 8, refs, q, w, seed)
			fmt.Printf("%-8d %12.3f %12d %12.4f\n",
				size, res.TBHitRatio, res.Broadcasts, res.CommandsPerCachePerRef)
		}
	default:
		fmt.Fprintf(os.Stderr, "coherencesim: unknown sweep %q (want sharing, n or tb)\n", kind)
		os.Exit(2)
	}
}

// Command repro regenerates the complete reproduction record: it runs
// every experiment (E1–E10 from DESIGN.md §3) at the committed
// configurations and emits a markdown report with paper-vs-measured
// values. Writing to a file:
//
//	go run ./cmd/repro > experiments_generated.md
//
// Runtime is a couple of minutes; everything is deterministic.
package main

import (
	"fmt"
	"os"

	"twobit"
)

func main() {
	out := os.Stdout
	fmt.Fprintln(out, "# Regenerated reproduction record")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "Produced by `go run ./cmd/repro`; see EXPERIMENTS.md for commentary.")
	fmt.Fprintln(out)

	section(out, "E1 — Table 4-1 (analytic, cell-exact)")
	fmt.Fprintln(out, "```")
	fmt.Fprint(out, twobit.CompareTable41())
	fmt.Fprintln(out, "```")

	section(out, "E2 — Table 4-2 (Dubois–Briggs reconstruction)")
	fmt.Fprintln(out, "```")
	fmt.Fprint(out, twobit.CompareTable42())
	fmt.Fprintln(out, "```")

	section(out, "E3 — Simulated overhead sweep (the paper's deferred study)")
	fmt.Fprintln(out, "```")
	fmt.Fprintf(out, "%-20s %4s %14s %14s %14s\n", "sharing", "n", "sim two-bit", "sim full-map", "analytic")
	cases := []struct {
		name string
		q    float64
		c    twobit.SharingCase
	}{
		{"low", 0.01, twobit.LowSharing},
		{"moderate", 0.05, twobit.ModerateSharing},
		{"high", 0.10, twobit.HighSharing},
	}
	for _, c := range cases {
		for _, n := range []int{4, 8, 16} {
			two := run(twobit.DefaultConfig(twobit.TwoBit, n), gen(n, c.q, 0.2, 3), 8000)
			full := run(twobit.DefaultConfig(twobit.FullMap, n), gen(n, c.q, 0.2, 3), 8000)
			fmt.Fprintf(out, "%-20s %4d %14.4f %14.4f %14.4f\n",
				c.name, n, two.UselessPerCachePerRef, full.UselessPerCachePerRef,
				twobit.Overhead41(c.c, n, 0.2))
		}
	}
	fmt.Fprintln(out, "```")

	section(out, "E4 — Translation buffer (§4.4 enhancement 2)")
	fmt.Fprintln(out, "```")
	baseCfg := twobit.DefaultConfig(twobit.TwoBit, 16)
	base := run(baseCfg, gen(16, 0.1, 0.3, 11), 8000)
	fmt.Fprintf(out, "baseline (no TB): useless/ref %.4f, %d broadcasts\n\n",
		base.UselessPerCachePerRef, base.Broadcasts)
	fmt.Fprintf(out, "%-10s %10s %12s %14s %14s\n", "entries", "TB hit", "broadcasts", "useless/ref", "measured cut")
	for _, size := range []int{4, 16, 64, 256} {
		cfg := twobit.DefaultConfig(twobit.TwoBit, 16)
		cfg.TranslationBufferSize = size
		res := run(cfg, gen(16, 0.1, 0.3, 11), 8000)
		fmt.Fprintf(out, "%-10d %10.3f %12d %14.4f %13.1f%%\n",
			size, res.TBHitRatio, res.Broadcasts, res.UselessPerCachePerRef,
			(1-res.UselessPerCachePerRef/base.UselessPerCachePerRef)*100)
	}
	fmt.Fprintln(out, "```")

	section(out, "E5 — Duplicate cache directories (§4.4 enhancement 1)")
	fmt.Fprintln(out, "```")
	for _, dup := range []bool{false, true} {
		cfg := twobit.DefaultConfig(twobit.TwoBit, 16)
		cfg.DuplicateDirectory = dup
		res := run(cfg, gen(16, 0.1, 0.3, 9), 8000)
		label := "without duplicate directory"
		if dup {
			label = "with duplicate directory   "
		}
		fmt.Fprintf(out, "%s: %.4f stolen cycles/ref\n", label, res.StolenCyclesPerRef)
	}
	fmt.Fprintln(out, "```")

	section(out, "E6 — Protocol spectrum (§2 survey)")
	fmt.Fprintln(out, "```")
	fmt.Fprintf(out, "%-12s %10s %10s %12s %12s\n", "protocol", "cycles/ref", "cmds/ref", "useless/ref", "net msgs")
	for _, p := range []twobit.Protocol{
		twobit.Software, twobit.Classical, twobit.Duplication,
		twobit.FullMap, twobit.FullMapExclusive, twobit.WriteOnce, twobit.TwoBit,
	} {
		res := run(twobit.DefaultConfig(p, 8), gen(8, 0.05, 0.2, 7), 8000)
		fmt.Fprintf(out, "%-12s %10.2f %10.4f %12.4f %12d\n",
			p, res.CyclesPerRef, res.CommandsPerCachePerRef,
			res.UselessPerCachePerRef, res.Net.Messages.Value())
	}
	fmt.Fprintln(out, "```")

	section(out, "E8 — Bounded model checking")
	fmt.Fprintln(out, "```")
	mc := func(name string, sc twobit.MCScenario) {
		res, err := twobit.ModelCheck(sc)
		if err != nil {
			fmt.Fprintf(out, "%-30s VIOLATION: %v\n", name, err)
			return
		}
		fmt.Fprintf(out, "%-30s %8d interleavings, max depth %d\n", name, res.Paths, res.MaxDepth)
	}
	mcCfg := twobit.DefaultConfig(twobit.TwoBit, 2)
	mcCfg.Modules = 1
	mcCfg.CacheSets = 4
	mcCfg.CacheAssoc = 1
	sharedRW := func(write bool) twobit.Ref { return twobit.Ref{Block: 0, Write: write, Shared: true} }
	mc("racing MREQUESTs (§3.2.5)", twobit.MCScenario{
		Config: mcCfg, Blocks: 16,
		Scripts: [][]twobit.Ref{
			{sharedRW(false), sharedRW(true)},
			{sharedRW(false), sharedRW(true)},
		},
	})
	mc("eviction vs BROADQUERY", twobit.MCScenario{
		Config: mcCfg, Blocks: 16,
		Scripts: [][]twobit.Ref{
			{sharedRW(true), {Block: 4}, {Block: 8}},
			{sharedRW(false)},
		},
	})
	fmt.Fprintln(out, "```")

	section(out, "E9 — Coherent I/O (DMA)")
	fmt.Fprintln(out, "```")
	fmt.Fprintf(out, "%-8s %12s %12s %12s %14s\n", "devices", "DMA reads", "DMA writes", "broadcasts", "useless/ref")
	for _, devices := range []int{0, 2, 4} {
		cfg := twobit.DefaultConfig(twobit.TwoBit, 8)
		cfg.DMA = twobit.DMAConfig{Devices: devices, Blocks: 16, WriteFrac: 0.5}
		res := run(cfg, gen(8, 0.1, 0.3, 13), 8000)
		var dr, dw uint64
		for _, c := range res.Ctrl {
			dr += c.DMAReads.Value()
			dw += c.DMAWrites.Value()
		}
		fmt.Fprintf(out, "%-8d %12d %12d %12d %14.4f\n", devices, dr, dw, res.Broadcasts, res.UselessPerCachePerRef)
	}
	fmt.Fprintln(out, "```")

	section(out, "E10 — Zipf-skewed sharing (extension)")
	fmt.Fprintln(out, "```")
	fmt.Fprintf(out, "%-10s %10s %14s\n", "skew", "TB hit", "useless/ref")
	for _, skew := range []float64{0, 1, 2} {
		cfg := twobit.DefaultConfig(twobit.TwoBit, 16)
		cfg.TranslationBufferSize = 8
		zg := twobit.NewZipfSharedWorkload(twobit.ZipfSharedConfig{
			Procs: 16, SharedBlocks: 64, Skew: skew, Q: 0.1, W: 0.3,
			PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 64, ColdBlocks: 512, Seed: 31,
		})
		res := run(cfg, zg, 6000)
		fmt.Fprintf(out, "%-10.1f %10.3f %14.4f\n", skew, res.TBHitRatio, res.UselessPerCachePerRef)
	}
	fmt.Fprintln(out, "```")

	section(out, "Hardware economy (§2.4.2 / §3.1)")
	fmt.Fprintln(out, "```")
	fmt.Fprintf(out, "%-6s %14s %12s %14s %12s\n", "n", "full-map bits", "overhead", "two-bit bits", "overhead")
	for _, r := range twobit.CostTable(16) {
		fmt.Fprintf(out, "%-6d %14d %11.1f%% %14d %11.2f%%\n",
			r.Procs, r.FullMapBits, r.FullMapOverhead*100, r.TwoBitBits, r.TwoBitOverhead*100)
	}
	fmt.Fprintln(out, "```")
}

func section(out *os.File, title string) {
	fmt.Fprintf(out, "\n## %s\n\n", title)
}

func gen(procs int, q, w float64, seed uint64) twobit.Generator {
	return twobit.NewSharedPrivateWorkload(twobit.SharedPrivateConfig{
		Procs: procs, SharedBlocks: 16, Q: q, W: w,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 64, ColdBlocks: 512, Seed: seed,
	})
}

func run(cfg twobit.Config, g twobit.Generator, refs int) twobit.Results {
	m, err := twobit.NewMachine(cfg, g)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}
	res, err := m.Run(refs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}
	return res
}

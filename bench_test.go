// Benchmark harness: one benchmark per table/figure/claim of the paper's
// evaluation (the experiment ids E1–E10 are indexed in DESIGN.md §3).
// Custom metrics are attached with b.ReportMetric; run with
//
//	go test -bench=. -benchmem
//
// The *_print benchmarks (run once per invocation) emit the regenerated
// tables on standard output so `go test -bench` output doubles as the
// reproduction record.
//
// These measure the simulated machine, in the paper's units. How fast the
// simulator itself runs is measured by one program only, `go run ./bench`
// (bench/README.md); BenchmarkSimulatorThroughput and
// BenchmarkProtocolComparison are its paper-8p and spectrum-8p points, kept
// here for ad-hoc -bench use.
package twobit

import (
	"fmt"
	"sync"
	"testing"

	"twobit/internal/proto"
	"twobit/internal/sim"
	"twobit/internal/workload"
)

// benchGen builds the standard workload for simulator benchmarks.
func benchGen(procs int, q, w float64, seed uint64) Generator {
	return workload.NewSharedPrivate(workload.SharedPrivateConfig{
		Procs: procs, SharedBlocks: 16, Q: q, W: w,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 64, ColdBlocks: 512, Seed: seed,
	})
}

func benchRun(b *testing.B, cfg Config, gen Generator, refs int) Results {
	b.Helper()
	m, err := NewMachine(cfg, gen)
	if err != nil {
		b.Fatal(err)
	}
	res, err := m.Run(refs)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

var printOnce sync.Once

// BenchmarkTable41 (E1) regenerates Table 4-1 from the §4.2 closed form
// and reports the paper's corner cell as a metric. The full grid matches
// the published table cell-for-cell (two documented misprints aside).
func BenchmarkTable41(b *testing.B) {
	var grid [][][]float64
	for i := 0; i < b.N; i++ {
		grid = Table41()
	}
	b.ReportMetric(grid[2][0][4], "case3_w0.1_n64") // paper: 34.839
	b.ReportMetric(grid[1][1][2], "case2_w0.2_n16") // paper: 0.422
	printOnce.Do(func() { fmt.Print("\n", RenderTable41(), "\n") })
}

// BenchmarkTable42 (E2) regenerates Table 4-2 from the Markov-chain
// reconstruction of the Dubois–Briggs model.
func BenchmarkTable42(b *testing.B) {
	var grid [][][]float64
	for i := 0; i < b.N; i++ {
		grid = Table42()
	}
	b.ReportMetric(grid[0][0][4], "q0.01_w0.1_n64") // paper: 0.599
	b.ReportMetric(grid[2][3][4], "q0.10_w0.4_n64") // paper: 7.582
}

// BenchmarkTable42Print emits the reconstructed table once.
func BenchmarkTable42Print(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Table42()
	}
	if b.N > 0 {
		b.StopTimer()
		fmt.Print("\n", RenderTable42(), "\n")
	}
}

// BenchmarkSimOverheadSweep (E3) is the simulation study §4.3 defers to
// future work: measured two-bit broadcast overhead per sharing level and
// processor count, reported as useless commands per cache per reference.
func BenchmarkSimOverheadSweep(b *testing.B) {
	cases := []struct {
		name string
		q    float64
	}{
		{"low", 0.01}, {"moderate", 0.05}, {"high", 0.10},
	}
	for _, c := range cases {
		for _, n := range []int{4, 8, 16, 32} {
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				var last Results
				for i := 0; i < b.N; i++ {
					cfg := DefaultConfig(TwoBit, n)
					last = benchRun(b, cfg, benchGen(n, c.q, 0.2, 3), 4000)
				}
				b.ReportMetric(last.UselessPerCachePerRef, "useless/ref")
				b.ReportMetric(last.CommandsPerCachePerRef, "cmds/ref")
			})
		}
	}
}

// BenchmarkTranslationBuffer (E4) sweeps the §4.4 owner cache and reports
// hit ratio vs broadcast-overhead reduction (the "90% hit ratio eliminates
// 90% of the added overhead" claim).
func BenchmarkTranslationBuffer(b *testing.B) {
	base := struct {
		once sync.Once
		val  float64
	}{}
	baseline := func(b *testing.B) float64 {
		base.once.Do(func() {
			cfg := DefaultConfig(TwoBit, 16)
			base.val = benchRun(b, cfg, benchGen(16, 0.1, 0.3, 11), 4000).UselessPerCachePerRef
		})
		return base.val
	}
	for _, size := range []int{0, 16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			var last Results
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig(TwoBit, 16)
				cfg.TranslationBufferSize = size
				last = benchRun(b, cfg, benchGen(16, 0.1, 0.3, 11), 4000)
			}
			b.ReportMetric(last.TBHitRatio, "tb_hit_ratio")
			if bv := baseline(b); bv > 0 {
				b.ReportMetric(1-last.UselessPerCachePerRef/bv, "overhead_cut")
			}
		})
	}
}

// BenchmarkDuplicateDirectory (E5) measures §4.4 enhancement 1: stolen
// cache cycles with and without the duplicate cache directory.
func BenchmarkDuplicateDirectory(b *testing.B) {
	for _, dup := range []bool{false, true} {
		name := "without"
		if dup {
			name = "with"
		}
		b.Run(name, func(b *testing.B) {
			var last Results
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig(TwoBit, 16)
				cfg.DuplicateDirectory = dup
				last = benchRun(b, cfg, benchGen(16, 0.1, 0.3, 9), 4000)
			}
			b.ReportMetric(last.StolenCyclesPerRef, "stolen_cycles/ref")
		})
	}
}

// BenchmarkProtocolComparison (E6) runs the full protocol spectrum of §2
// on one workload.
func BenchmarkProtocolComparison(b *testing.B) {
	for _, p := range []Protocol{TwoBit, FullMap, FullMapExclusive, Classical, Duplication, WriteOnce, Software} {
		b.Run(p.String(), func(b *testing.B) {
			var last Results
			for i := 0; i < b.N; i++ {
				last = benchRun(b, DefaultConfig(p, 8), benchGen(8, 0.05, 0.2, 7), 4000)
			}
			b.ReportMetric(last.CommandsPerCachePerRef, "cmds/ref")
			b.ReportMetric(last.CyclesPerRef, "cycles/ref")
		})
	}
}

// BenchmarkControllerConcurrency is the §3.2.5 design-choice ablation:
// one-command-at-a-time vs per-block transaction service.
func BenchmarkControllerConcurrency(b *testing.B) {
	run := func(b *testing.B, single bool) Results {
		cfg := DefaultConfig(TwoBit, 16)
		cfg.Modules = 1
		if single {
			cfg.Mode = proto.SingleCommand
		}
		return benchRun(b, cfg, benchGen(16, 0.1, 0.3, 5), 2000)
	}
	b.Run("per-block", func(b *testing.B) {
		var last Results
		for i := 0; i < b.N; i++ {
			last = run(b, false)
		}
		b.ReportMetric(last.CyclesPerRef, "cycles/ref")
	})
	b.Run("single-command", func(b *testing.B) {
		var last Results
		for i := 0; i < b.N; i++ {
			last = run(b, true)
		}
		b.ReportMetric(last.CyclesPerRef, "cycles/ref")
	})
}

// BenchmarkCleanEjectAblation measures the paper's note that keeping
// Present1 (via EJECT read) reduces broadcasts.
func BenchmarkCleanEjectAblation(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "with-clean-eject"
		if disable {
			name = "without"
		}
		b.Run(name, func(b *testing.B) {
			var last Results
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig(TwoBit, 8)
				cfg.DisableCleanEject = disable
				cfg.CacheSets = 16
				cfg.CacheAssoc = 1
				last = benchRun(b, cfg, benchGen(8, 0.2, 0.3, 12), 4000)
			}
			b.ReportMetric(float64(last.Broadcasts), "broadcasts")
		})
	}
}

// BenchmarkNetworks compares the two-bit scheme across the three
// interconnection models (the broadcast-contention concern of §4.3).
func BenchmarkNetworks(b *testing.B) {
	for _, nk := range []NetKind{CrossbarNet, BusNet, OmegaNet} {
		b.Run(nk.String(), func(b *testing.B) {
			var last Results
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig(TwoBit, 8)
				cfg.Net = nk
				last = benchRun(b, cfg, benchGen(8, 0.1, 0.3, 8), 2000)
			}
			b.ReportMetric(last.CyclesPerRef, "cycles/ref")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed in simulated
// references per second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	refs := 0
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(TwoBit, 8)
		benchRun(b, cfg, benchGen(8, 0.05, 0.2, 1), 2000)
		refs += 8 * 2000
	}
	b.ReportMetric(float64(refs)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkZipfSharing is the skewed-sharing extension: under Zipf-skewed
// contention the translation buffer covers the hot set with far fewer
// entries than under the paper's uniform model.
func BenchmarkZipfSharing(b *testing.B) {
	for _, skew := range []float64{0, 1.0, 2.0} {
		for _, tb := range []int{0, 8} {
			b.Run(fmt.Sprintf("skew=%.1f/tb=%d", skew, tb), func(b *testing.B) {
				var last Results
				for i := 0; i < b.N; i++ {
					cfg := DefaultConfig(TwoBit, 16)
					cfg.TranslationBufferSize = tb
					gen := NewZipfSharedWorkload(ZipfSharedConfig{
						Procs: 16, SharedBlocks: 64, Skew: skew, Q: 0.1, W: 0.3,
						PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 64, ColdBlocks: 512, Seed: 31,
					})
					last = benchRun(b, cfg, gen, 3000)
				}
				b.ReportMetric(last.UselessPerCachePerRef, "useless/ref")
				if tb > 0 {
					b.ReportMetric(last.TBHitRatio, "tb_hit_ratio")
				}
			})
		}
	}
}

// BenchmarkDMA measures the I/O extension: coherent uncached device
// traffic through the two-bit controllers.
func BenchmarkDMA(b *testing.B) {
	for _, devices := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("devices=%d", devices), func(b *testing.B) {
			var last Results
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig(TwoBit, 8)
				cfg.DMA = DMAConfig{Devices: devices, Blocks: 16, WriteFrac: 0.5}
				last = benchRun(b, cfg, benchGen(8, 0.1, 0.3, 13), 3000)
			}
			b.ReportMetric(float64(last.Broadcasts), "broadcasts")
			b.ReportMetric(last.CtrlUtilization, "ctrl_util")
		})
	}
}

// BenchmarkControllerUtilization quantifies the §2.4.1 bottleneck: the
// central duplication controller saturates while distributed full-map
// controllers stay lightly loaded.
func BenchmarkControllerUtilization(b *testing.B) {
	run := func(b *testing.B, p Protocol, modules int) Results {
		cfg := DefaultConfig(p, 16)
		cfg.Modules = modules
		return benchRun(b, cfg, benchGen(16, 0.05, 0.2, 7), 2000)
	}
	b.Run("duplication-central", func(b *testing.B) {
		var last Results
		for i := 0; i < b.N; i++ {
			last = run(b, Duplication, 1)
		}
		b.ReportMetric(last.CtrlUtilization, "ctrl_util")
		b.ReportMetric(last.CyclesPerRef, "cycles/ref")
	})
	b.Run("fullmap-distributed", func(b *testing.B) {
		var last Results
		for i := 0; i < b.N; i++ {
			last = run(b, FullMap, 4)
		}
		b.ReportMetric(last.CtrlUtilization, "ctrl_util")
		b.ReportMetric(last.CyclesPerRef, "cycles/ref")
	})
}

// BenchmarkJitterRobustness measures the two-bit scheme under randomized
// message delays (the coherent-but-not-linearizable regime).
func BenchmarkJitterRobustness(b *testing.B) {
	for _, jitter := range []int{0, 10, 40} {
		b.Run(fmt.Sprintf("jitter=%d", jitter), func(b *testing.B) {
			var last Results
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig(TwoBit, 8)
				cfg.NetJitter = sim.Time(jitter)
				last = benchRun(b, cfg, benchGen(8, 0.1, 0.3, 8), 2000)
			}
			b.ReportMetric(last.CyclesPerRef, "cycles/ref")
			b.ReportMetric(float64(last.LatencyP99), "latency_p99")
		})
	}
}

// BenchmarkMigration measures the paper's other broadcast source: "these
// signals are only necessary in the case of actual sharing or task
// migration". Faster migration (smaller interval) leaves more stale
// copies behind, driving two-bit broadcasts that the full map avoids.
func BenchmarkMigration(b *testing.B) {
	for _, interval := range []int{100, 400, 1600} {
		for _, p := range []Protocol{TwoBit, FullMap} {
			b.Run(fmt.Sprintf("interval=%d/%s", interval, p), func(b *testing.B) {
				var last Results
				for i := 0; i < b.N; i++ {
					cfg := DefaultConfig(p, 8)
					gen := NewMigrationWorkload(8, 8, 24, interval, 17)
					last = benchRun(b, cfg, gen, 4000)
				}
				b.ReportMetric(last.UselessPerCachePerRef, "useless/ref")
				b.ReportMetric(float64(last.Broadcasts), "broadcasts")
			})
		}
	}
}

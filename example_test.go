package twobit_test

import (
	"fmt"
	"strings"

	"twobit"
)

// The analytic corner of Table 4-1: high sharing, 64 processors.
func ExampleOverhead41() {
	fmt.Printf("%.3f\n", twobit.Overhead41(twobit.HighSharing, 64, 0.1))
	// Output: 34.839
}

// The §4.3 viability boundaries, straight from the closed form.
func ExampleMaxViableProcessors() {
	fmt.Println(twobit.MaxViableProcessors(twobit.LowSharing, 0.2, 1.0))
	fmt.Println(twobit.MaxViableProcessors(twobit.ModerateSharing, 0.2, 1.0))
	fmt.Println(twobit.MaxViableProcessors(twobit.HighSharing, 0.4, 1.0))
	// Output:
	// 64
	// 16
	// 8
}

// Directory storage economy: the full map's tag grows with n, the
// two-bit tag does not.
func ExampleCostTable() {
	rows := twobit.CostTable(16)
	last := rows[len(rows)-1]
	fmt.Printf("n=%d: full map %d bits vs two-bit %d bits\n",
		last.Procs, last.FullMapBits, last.TwoBitBits)
	// Output: n=64: full map 65 bits vs two-bit 2 bits
}

// A complete simulation round trip.
func ExampleNewMachine() {
	cfg := twobit.DefaultConfig(twobit.TwoBit, 4)
	gen := twobit.NewSharedPrivateWorkload(twobit.SharedPrivateConfig{
		Procs: 4, SharedBlocks: 16, Q: 0.05, W: 0.2,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 32, ColdBlocks: 128, Seed: 1,
	})
	m, err := twobit.NewMachine(cfg, gen)
	if err != nil {
		panic(err)
	}
	res, err := m.Run(1000)
	if err != nil {
		panic(err) // any coherence violation would surface here
	}
	fmt.Println(res.Refs, res.Protocol)
	// Output: 4000 two-bit
}

// raceGen drives the paper's §3.2.5 scenario: both processors read block
// 0, then both write it, then idle on private blocks.
type raceGen struct{ step []int }

func (g *raceGen) Blocks() int { return 64 }

func (g *raceGen) Next(proc int) twobit.Ref {
	i := g.step[proc]
	g.step[proc]++
	switch i {
	case 0:
		return twobit.Ref{Block: 0, Shared: true} // read: load a copy
	case 1:
		return twobit.Ref{Block: 0, Write: true, Shared: true} // the racing STORE
	default:
		return twobit.Ref{Block: twobit.Block(8 + proc*8 + i%4)} // private tail
	}
}

// The §3.2.5 synchronization example, message by message. Two processors
// hold clean copies of block 0 and store to it "at the same time": one
// MREQUEST is granted, while the other cache treats the BROADINV as
// MGRANTED(·,false) and reissues its store as a write REQUEST. The trace
// writer logs every message with its send time.
func ExampleNewMachine_racingStores() {
	var trace strings.Builder
	cfg := twobit.DefaultConfig(twobit.TwoBit, 2)
	cfg.Modules = 1
	cfg.TraceWriter = &trace
	m, err := twobit.NewMachine(cfg, &raceGen{step: make([]int, 2)})
	if err != nil {
		panic(err)
	}
	if _, err := m.Run(6); err != nil {
		panic(err) // the coherence oracle checked every load
	}
	for _, line := range strings.Split(strings.TrimRight(trace.String(), "\n"), "\n") {
		fmt.Println(line)
		switch {
		case strings.Contains(line, "MREQUEST(") && strings.Contains(line, "blk#0"):
			fmt.Println("    ^ a write hit on an unmodified copy asks for ownership")
		case strings.Contains(line, "BROADINV(blk#0"):
			fmt.Println("    ^ the winner's invalidation; the loser treats it as MGRANTED(·,false)")
		case strings.Contains(line, "MGRANTED") && strings.Contains(line, "true"):
			fmt.Println("    ^ ownership granted; the state becomes PresentM on the MACK")
		case strings.Contains(line, "REQUEST(") && strings.Contains(line, "blk#0,write"):
			fmt.Println("    ^ the loser's STORE reissued as a write miss")
		case strings.Contains(line, "BROADQUERY(blk#0"):
			fmt.Println("    ^ the loser's write miss finds PresentM: query the unknown owner")
		}
	}
	// Output:
	//        0  C0 -> K0  REQUEST(0,blk#0,read)
	//        0  C1 -> K0  REQUEST(1,blk#0,read)
	//       26  K0 -> C0  get(0,blk#0,v0)
	//       31  C0 -> K0  MREQUEST(0,blk#0)
	//     ^ a write hit on an unmodified copy asks for ownership
	//       48  K0 -> C1  get(1,blk#0,v0)
	//       50  K0 -> *   BROADINV(blk#0,0)
	//     ^ the winner's invalidation; the loser treats it as MGRANTED(·,false)
	//       50  K0 -> C0  MGRANTED(0,true)
	//     ^ ownership granted; the state becomes PresentM on the MACK
	//       53  C1 -> K0  MREQUEST(1,blk#0)
	//     ^ a write hit on an unmodified copy asks for ownership
	//       54  C1 -> K0  REQUEST(1,blk#0,write)
	//     ^ the loser's STORE reissued as a write miss
	//       54  C0 -> K0  MACK(blk#0,cache=0)
	//       55  C0 -> K0  REQUEST(0,blk#10,read)
	//       60  K0 -> C1  MGRANTED(1,false)
	//       62  K0 -> *   BROADQUERY(blk#0,write)
	//     ^ the loser's write miss finds PresentM: query the unknown owner
	//       66  C0 -> K0  put(blk#0,v1)
	//       81  K0 -> C0  get(0,blk#10,v0)
	//       86  C0 -> K0  REQUEST(0,blk#11,read)
	//       90  K0 -> C1  get(1,blk#0,v1)
	//       95  C1 -> K0  REQUEST(1,blk#18,read)
	//      112  K0 -> C0  get(0,blk#11,v0)
	//      117  C0 -> K0  REQUEST(0,blk#8,read)
	//      121  K0 -> C1  get(1,blk#18,v0)
	//      126  C1 -> K0  REQUEST(1,blk#19,read)
	//      143  K0 -> C0  get(0,blk#8,v0)
	//      148  C0 -> K0  REQUEST(0,blk#9,read)
	//      152  K0 -> C1  get(1,blk#19,v0)
	//      157  C1 -> K0  REQUEST(1,blk#16,read)
	//      174  K0 -> C0  get(0,blk#9,v0)
	//      183  K0 -> C1  get(1,blk#16,v0)
	//      188  C1 -> K0  REQUEST(1,blk#17,read)
	//      214  K0 -> C1  get(1,blk#17,v0)
}

// runSharedPrivate runs cfg on the paper's shared/private reference
// model: 16 shared blocks, and the private mix the examples below share.
func runSharedPrivate(cfg twobit.Config, q, w float64, seed uint64, refs int) twobit.Results {
	m, err := twobit.NewMachine(cfg, twobit.NewSharedPrivateWorkload(twobit.SharedPrivateConfig{
		Procs: cfg.Procs, SharedBlocks: 16, Q: q, W: w,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 64, ColdBlocks: 512, Seed: seed,
	}))
	if err != nil {
		panic(err)
	}
	res, err := m.Run(refs)
	if err != nil {
		panic(err) // any coherence violation would surface here
	}
	return res
}

// Quickstart: 16 processors under the two-bit scheme at moderate sharing
// (Table 4-1 case 2, q=0.05). The measured broadcast overhead lands beside
// the §4.2 analytic (n-1)·T_SUM — "for a more moderate level of sharing,
// performance is acceptable up to 16 processors".
func Example_quickstart() {
	res := runSharedPrivate(twobit.DefaultConfig(twobit.TwoBit, 16), 0.05, 0.2, 1, 20000)
	fmt.Println(res)
	fmt.Printf("useless commands/cache/ref %.4f, analytic %.4f\n",
		res.UselessPerCachePerRef, twobit.Overhead41(twobit.ModerateSharing, 16, 0.2))
	// Output:
	// two-bit, n=16: 320000 refs in 109393 cycles (5.47 cycles/ref/proc; latency mean 5.3 p50 1 p99 39)
	//   miss ratio 0.1331; commands/cache/ref 0.4610 (useless 0.4169); stolen cycles/ref 0.4610
	//   broadcasts 9834, directed sends 0, network messages 286115
	// useless commands/cache/ref 0.4169, analytic 0.4219
}

// Comparison (E6): every scheme the §2 survey covers, plus the two-bit
// proposal of §3, on one workload. The two-bit scheme tracks the full
// map's command counts at 2 bits per block instead of n+1.
func Example_comparison() {
	fmt.Printf("%-12s %10s %10s %11s %9s\n", "scheme", "cycles/ref", "cmds/ref", "useless/ref", "net msgs")
	for _, p := range []twobit.Protocol{
		twobit.Software, twobit.Classical, twobit.Duplication, twobit.FullMap,
		twobit.FullMapExclusive, twobit.WriteOnce, twobit.TwoBit,
	} {
		res := runSharedPrivate(twobit.DefaultConfig(p, 8), 0.05, 0.2, 7, 20000)
		fmt.Printf("%-12s %10.2f %10.4f %11.4f %9d\n", p, res.CyclesPerRef,
			res.CommandsPerCachePerRef, res.UselessPerCachePerRef, res.Net.Messages.Value())
	}
	// Output:
	// scheme       cycles/ref   cmds/ref useless/ref  net msgs
	// software           5.09     0.0000      0.0000     55118
	// classical         14.60     2.0535      2.0287    781332
	// duplication       34.15     0.0354      0.0001     74906
	// full-map           5.24     0.0355      0.0000     75007
	// full-map+E         5.19     0.0355      0.0000     79558
	// write-once         5.55     0.9818      0.8943     27687
	// two-bit            5.22     0.2180      0.1827    104186
}

// Iodma (E9): §2.2's I/O difficulty under the two-bit directory. DMA
// devices stream uncached reads and writes while processors cache the
// same blocks; the controllers drain modified owners before a device
// read and invalidate every copy before a device write, and the oracle
// checks every operation. Device writes add broadcasts.
func Example_iodma() {
	fmt.Printf("%-7s %9s %10s %10s %11s\n", "devices", "DMA reads", "DMA writes", "broadcasts", "useless/ref")
	for _, devices := range []int{0, 1, 2, 4} {
		cfg := twobit.DefaultConfig(twobit.TwoBit, 8)
		cfg.DMA = twobit.DMAConfig{Devices: devices, Blocks: 16, WriteFrac: 0.5}
		res := runSharedPrivate(cfg, 0.1, 0.3, 13, 15000)
		var reads, writes uint64
		for _, c := range res.Ctrl {
			reads, writes = reads+c.DMAReads.Value(), writes+c.DMAWrites.Value()
		}
		fmt.Printf("%-7d %9d %10d %10d %11.4f\n", devices, reads, writes, res.Broadcasts, res.UselessPerCachePerRef)
	}
	// Output:
	// devices DMA reads DMA writes broadcasts useless/ref
	// 0               0          0       7182      0.3316
	// 1            7391       7609       7987      0.3856
	// 2           14875      15125       8688      0.4334
	// 4           30026      29974       9723      0.5041
}

// Translation buffer (E4): §4.4's owner cache at each memory controller
// turns broadcasts into directed sends; the paper expects a hit ratio r
// to remove a fraction r of the broadcast overhead.
func Example_translationBuffer() {
	var base float64 // useless commands/cache/ref without a buffer
	fmt.Printf("%-7s %6s %10s %11s %12s\n", "entries", "TB hit", "broadcasts", "useless/ref", "measured cut")
	for _, entries := range []int{0, 4, 16, 64, 256, 1024} {
		cfg := twobit.DefaultConfig(twobit.TwoBit, 16)
		cfg.TranslationBufferSize = entries
		res := runSharedPrivate(cfg, 0.1, 0.3, 11, 20000)
		if entries == 0 {
			base = res.UselessPerCachePerRef
		}
		fmt.Printf("%-7d %6.3f %10d %11.4f %11.1f%%\n", entries, res.TBHitRatio, res.Broadcasts,
			res.UselessPerCachePerRef, 100*(1-res.UselessPerCachePerRef/base))
	}
	// Output:
	// entries TB hit broadcasts useless/ref measured cut
	// 0        0.000      19979      0.8341         0.0%
	// 4        0.201      12452      0.5117        38.7%
	// 16       0.358       6632      0.2741        67.1%
	// 64       0.451       3903      0.1807        78.3%
	// 256      0.666       2194      0.1029        87.7%
	// 1024     0.997         15      0.0007        99.9%
}

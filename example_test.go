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

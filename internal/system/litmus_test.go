package system

import (
	"fmt"
	"testing"

	"twobit/internal/addr"
	"twobit/internal/sim"
)

// scriptGen drives fixed per-processor reference sequences, then idles on
// private filler blocks; it lets classic litmus patterns run on the full
// machine. runScript collects the versions each processor's references
// return (the machine's oracle already validates per-location coherence;
// these tests check cross-location ordering visible to the blocking
// processors).
type scriptGen struct {
	scripts [][]addr.Ref // per-processor scripted prefix
	fillers []int        // per-processor filler position
	blocks  int
}

func newScriptGen(blocks int, scripts ...[]addr.Ref) *scriptGen {
	return &scriptGen{
		scripts: scripts,
		fillers: make([]int, len(scripts)),
		blocks:  blocks,
	}
}

func (g *scriptGen) Blocks() int { return g.blocks }

func (g *scriptGen) Next(proc int) addr.Ref {
	if len(g.scripts[proc]) > 0 {
		r := g.scripts[proc][0]
		g.scripts[proc] = g.scripts[proc][1:]
		return r
	}
	// Filler: private blocks high in the space.
	g.fillers[proc]++
	base := g.blocks - 8*(proc+1)
	return addr.Ref{Block: addr.Block(base + g.fillers[proc]%4)}
}

// runScript builds a machine for cfg and drives each processor's script
// directly through its cache agent, one outstanding reference at a time.
// It returns, per processor and in script order, the version each
// reference read or wrote.
func runScript(t *testing.T, cfg Config, blocks int, scripts ...[]addr.Ref) [][]uint64 {
	t.Helper()
	m, err := New(cfg, newScriptGen(blocks, scripts...))
	if err != nil {
		t.Fatal(err)
	}
	obs := make([][]uint64, len(scripts))
	var drive func(p int, refs []addr.Ref)
	var version uint64 = 1000
	drive = func(p int, refs []addr.Ref) {
		if len(refs) == 0 {
			return
		}
		ref := refs[0]
		var v uint64
		if ref.Write {
			version++
			v = version
		}
		m.CacheSide(p).Access(ref, v, func(got uint64) {
			obs[p] = append(obs[p], got)
			drive(p, refs[1:])
		})
	}
	for p, s := range scripts {
		drive(p, s)
	}
	m.Kernel().Run()
	for p, s := range scripts {
		if len(obs[p]) != len(s) {
			t.Fatalf("proc %d completed %d of %d scripted refs", p, len(obs[p]), len(s))
		}
	}
	return obs
}

// TestLitmusMessagePassing is the MP litmus test: P0 writes data (x) then
// flag (y); P1 reads flag then data. With blocking processors (one
// outstanding reference each), a P1 that observes the new flag must then
// observe the new data — on every protocol, across jittered runs.
func TestLitmusMessagePassing(t *testing.T) {
	const x, y = 0, 1
	for _, p := range []Protocol{TwoBit, FullMap, FullMapExclusive, Classical} {
		for seed := uint64(1); seed <= 8; seed++ {
			cfg := DefaultConfig(p, 2)
			cfg.Seed = seed
			if p != Classical {
				cfg.NetJitter = sim.Time(seed * 3 % 17)
			}
			obs := runScript(t, cfg, 64,
				[]addr.Ref{
					{Block: x, Write: true, Shared: true},
					{Block: y, Write: true, Shared: true},
				},
				[]addr.Ref{
					{Block: y, Shared: true},
					{Block: x, Shared: true},
				},
			)
			wroteX, wroteY := obs[0][0], obs[0][1]
			readY, readX := obs[1][0], obs[1][1]
			if readY == wroteY && readX != wroteX && readX == 0 {
				t.Fatalf("%v seed %d: MP violation: saw flag y=v%d but stale x=v%d (wrote x=v%d)",
					p, seed, readY, readX, wroteX)
			}
		}
	}
}

// TestLitmusCoRR checks coherence of read-read pairs: two back-to-back
// reads of the same block by one processor never observe versions moving
// backwards, even while another processor writes it continuously.
func TestLitmusCoRR(t *testing.T) {
	const x = 0
	writer := make([]addr.Ref, 0, 40)
	reader := make([]addr.Ref, 0, 40)
	for i := 0; i < 20; i++ {
		writer = append(writer, addr.Ref{Block: x, Write: true, Shared: true})
		reader = append(reader,
			addr.Ref{Block: x, Shared: true},
			addr.Ref{Block: x, Shared: true})
	}
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := DefaultConfig(TwoBit, 2)
		cfg.Seed = seed
		cfg.NetJitter = 11
		obs := runScript(t, cfg, 64, writer, reader)
		// The machine's oracle enforces per-proc monotonicity already; this
		// asserts it end-to-end on the observed sequence.
		prevIdx := -1
		writes := obs[0]
		pos := map[uint64]int{0: -1}
		for i, v := range writes {
			pos[v] = i
		}
		for _, v := range obs[1] {
			idx, ok := pos[v]
			if !ok {
				t.Fatalf("seed %d: reader observed unknown version %d", seed, v)
			}
			if idx < prevIdx {
				t.Fatalf("seed %d: read-read pair went backwards: write #%d after #%d", seed, idx, prevIdx)
			}
			prevIdx = idx
		}
	}
}

// TestLitmusWriteSerialization: two processors alternately write the same
// block; a third reads it repeatedly. All observed versions must form a
// subsequence consistent with one total write order (the oracle enforces
// the per-reader condition; here we additionally check the reader never
// sees a version the oracle ordered before an already-seen one, which
// runScript surfaces as a machine error).
func TestLitmusWriteSerialization(t *testing.T) {
	const x = 0
	w := []addr.Ref{}
	for i := 0; i < 25; i++ {
		w = append(w, addr.Ref{Block: x, Write: true, Shared: true})
	}
	r := []addr.Ref{}
	for i := 0; i < 50; i++ {
		r = append(r, addr.Ref{Block: x, Shared: true})
	}
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := DefaultConfig(TwoBit, 3)
		cfg.Seed = seed
		cfg.NetJitter = 9
		runScript(t, cfg, 64, w, w, r)
	}
}

// TestLitmusDekkerStoreBuffering is SB: each processor writes one block,
// then reads the other's. Both reads returning the initial value is
// legal (both reads may linearize before both writes), so the test
// asserts only what coherence demands: each read returns the initial
// value or the other processor's write.
func TestLitmusDekkerStoreBuffering(t *testing.T) {
	const x, y = 0, 1
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := DefaultConfig(TwoBit, 2)
		cfg.Seed = seed
		obs := runScript(t, cfg, 64,
			[]addr.Ref{
				{Block: x, Write: true, Shared: true},
				{Block: y, Shared: true},
			},
			[]addr.Ref{
				{Block: y, Write: true, Shared: true},
				{Block: x, Shared: true},
			},
		)
		wroteX, readY := obs[0][0], obs[0][1]
		wroteY, readX := obs[1][0], obs[1][1]
		if readY != 0 && readY != wroteY {
			t.Errorf("seed %d: p0 read y=v%d, neither the initial value nor p1's write v%d", seed, readY, wroteY)
		}
		if readX != 0 && readX != wroteX {
			t.Errorf("seed %d: p1 read x=v%d, neither the initial value nor p0's write v%d", seed, readX, wroteX)
		}
	}
}

// TestLitmusFanOut: one writer, many readers; every reader's final read
// (issued after a long delay of filler work) must see the final version —
// eventual visibility.
func TestLitmusFanOut(t *testing.T) {
	const x = 0
	writerScript := []addr.Ref{}
	for i := 0; i < 10; i++ {
		writerScript = append(writerScript, addr.Ref{Block: x, Write: true, Shared: true})
	}
	scripts := [][]addr.Ref{writerScript}
	const readers = 6
	for r := 0; r < readers; r++ {
		s := []addr.Ref{}
		// Filler reads of private blocks delay the final shared read well
		// past the writer's completion.
		for i := 0; i < 40; i++ {
			s = append(s, addr.Ref{Block: addr.Block(16 + r*4 + i%4)})
		}
		s = append(s, addr.Ref{Block: x, Shared: true})
		scripts = append(scripts, s)
	}
	cfg := DefaultConfig(TwoBit, 1+readers)
	obs := runScript(t, cfg, 64, scripts...)
	finalWrite := obs[0][len(obs[0])-1]
	stale := 0
	for r := 1; r <= readers; r++ {
		if got := obs[r][len(obs[r])-1]; got != finalWrite {
			stale++
			// A reader that finished its fillers before the writer's last
			// store may legally read an older version; but with 40 filler
			// refs versus 10 stores, all readers should outlast the writer.
		}
	}
	if stale > 0 {
		t.Fatalf("%d of %d late readers saw a stale version", stale, readers)
	}
}

// TestLitmusAcrossModules places x and y on different memory controllers
// and repeats MP with neither block cached beforehand: p0 writes x then
// y, p1 reads y then x. It covers only that cold case. MP's forbidden
// outcome is reachable at two modules once p1 caches x first (a write
// completes on MGRANTED while its BROADINV copies are still in flight);
// the exhaustive litmus table of ROADMAP item 1 is to cover that case.
func TestLitmusAcrossModules(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := DefaultConfig(TwoBit, 2)
		cfg.Modules = 4
		cfg.Seed = seed
		// x=0 (module 0), y=1 (module 1).
		obs := runScript(t, cfg, 64,
			[]addr.Ref{
				{Block: 0, Write: true, Shared: true},
				{Block: 1, Write: true, Shared: true},
			},
			[]addr.Ref{
				{Block: 1, Shared: true},
				{Block: 0, Shared: true},
			},
		)
		if obs[1][0] == obs[0][1] && obs[1][1] == 0 {
			t.Fatalf("seed %d: cross-module MP violation", seed)
		}
	}
}

func ExampleProtocol_String() {
	fmt.Println(TwoBit, FullMap, Classical)
	// Output: two-bit full-map classical
}

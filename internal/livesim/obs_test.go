package livesim

import (
	"strings"
	"sync"
	"testing"

	"twobit/internal/addr"
	"twobit/internal/obs"
	"twobit/internal/system"
)

// suffixTotals folds a snapshot's counters over node indices: "cache12/refs"
// and "cache3/refs" both land in "cache/refs". The live machine and the
// deterministic simulator stripe blocks over modules differently, so only
// these index-blind aggregates are comparable between them.
func suffixTotals(s obs.Snapshot) map[string]uint64 {
	out := make(map[string]uint64)
	for _, cv := range s.Counters {
		i := strings.IndexByte(cv.Name, '/')
		if i < 0 {
			continue
		}
		kind := strings.TrimRight(cv.Name[:i], "0123456789")
		out[kind+"/"+cv.Name[i+1:]] += cv.Value
	}
	return out
}

// upgradeScript is the reference stream of the parity test: processor p owns
// private blocks p*4..p*4+3 and, in order, read-misses each one, upgrades
// each with a §3.2.4 MREQUEST write, then write-hits each modified copy.
// Every reference's protocol path is independent of scheduling (no block is
// shared), so both simulators must produce identical counter totals.
func upgradeScript(p, i int) addr.Ref {
	const blocksPer = 4
	b := addr.Block(p*blocksPer + i%blocksPer)
	return addr.Ref{Block: b, Write: i >= blocksPer}
}

// scriptGen drives the deterministic simulator with the same per-processor
// streams the live machine replays.
type scriptGen struct {
	pos    []int
	blocks int
}

func (g *scriptGen) Next(proc int) addr.Ref {
	r := upgradeScript(proc, g.pos[proc])
	g.pos[proc]++
	return r
}

func (g *scriptGen) Blocks() int { return g.blocks }

// TestCounterParityWithDeterministicSimulator runs the interleaving-
// independent upgrade workload on both implementations and demands equal
// counter totals — and equal to the hand-computed truth: 16 cold misses,
// 16 MREQUEST upgrades, no broadcasts, Absent→Present1→PresentM for each
// of the 16 blocks. This is the cross-validation the package exists for,
// extended from end-state invariants to the event counts along the way.
func TestCounterParityWithDeterministicSimulator(t *testing.T) {
	const procs, blocksPer = 4, 4
	const refsPer = 3 * blocksPer
	const blocks = procs * blocksPer

	liveRec := obs.New(0)
	lm, err := New(Config{Procs: procs, Modules: 4, CacheBlocks: 8, Blocks: blocks, Obs: liveRec})
	if err != nil {
		t.Fatal(err)
	}
	err = lm.Run(func(proc int, access func(addr.Ref) uint64) {
		for i := 0; i < refsPer; i++ {
			access(upgradeScript(proc, i))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	live := suffixTotals(liveRec.Snapshot())

	detRec := obs.New(0)
	cfg := system.DefaultConfig(system.TwoBit, procs)
	cfg.Obs = detRec
	dm, err := system.New(cfg, &scriptGen{pos: make([]int, procs), blocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dm.Run(refsPer)
	if err != nil {
		t.Fatal(err)
	}
	det := suffixTotals(detRec.Snapshot())

	for _, c := range []struct {
		name string
		want uint64
	}{
		{"cache/refs", procs * refsPer},
		{"ctrl/broadcasts", 0},
		{"ctrl/dir_to_absent", 0},
		{"ctrl/dir_to_present1", blocks},
		{"ctrl/dir_to_present_star", 0},
		{"ctrl/dir_to_present_m", blocks},
	} {
		if live[c.name] != c.want {
			t.Errorf("livesim %s = %d, want %d", c.name, live[c.name], c.want)
		}
		if det[c.name] != c.want {
			t.Errorf("deterministic %s = %d, want %d", c.name, det[c.name], c.want)
		}
	}

	// The deterministic simulator keeps misses/upgrades/invalidations in
	// its Results stats rather than obs counters; the live machine's
	// counters must agree with those too.
	var misses, mreqs, invs uint64
	for _, st := range res.Store {
		misses += st.Misses.Value()
	}
	for _, cs := range res.Cache {
		mreqs += cs.MRequestsSent.Value()
		invs += cs.InvalidationsApplied.Value()
	}
	for _, c := range []struct {
		name     string
		detTotal uint64
		want     uint64
	}{
		{"cache/misses", misses, blocks},
		{"cache/mrequests", mreqs, blocks},
		{"cache/invalidations", invs, 0},
	} {
		if live[c.name] != c.want {
			t.Errorf("livesim %s = %d, want %d", c.name, live[c.name], c.want)
		}
		if c.detTotal != c.want {
			t.Errorf("deterministic stats for %s = %d, want %d", c.name, c.detTotal, c.want)
		}
	}
}

// TestObsCountersContendedScenario phase-barriers a contended workload so
// its counter totals are schedule-independent and checkable by hand:
// every processor reads 4 shared blocks; processor 0 upgrades them all
// (one BROADINV each, invalidating 3 copies each); the others read them
// back (one BROADQUERY write-back each). Run under -race this also proves
// the one-writer-per-counter discipline.
func TestObsCountersContendedScenario(t *testing.T) {
	const procs, blocks = 4, 4
	rec := obs.New(0)
	m, err := New(Config{Procs: procs, Modules: 2, CacheBlocks: 8, Blocks: blocks, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	var readersDone sync.WaitGroup
	readersDone.Add(procs)
	writerDone := make(chan struct{})
	err = m.Run(func(proc int, access func(addr.Ref) uint64) {
		for b := 0; b < blocks; b++ {
			access(addr.Ref{Block: addr.Block(b)})
		}
		readersDone.Done()
		readersDone.Wait()
		if proc == 0 {
			for b := 0; b < blocks; b++ {
				access(addr.Ref{Block: addr.Block(b), Write: true})
			}
			close(writerDone)
			return
		}
		<-writerDone
		for b := 0; b < blocks; b++ {
			access(addr.Ref{Block: addr.Block(b)})
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	got := suffixTotals(rec.Snapshot())
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"cache/refs", 16 + 4 + 12}, // phase reads + upgrades + read-backs
		{"cache/misses", 16 + 12},   // cold misses + post-invalidation misses
		{"cache/mrequests", blocks}, // one upgrade per block
		{"cache/invalidations", 3 * blocks},
		{"ctrl/broadcasts", 2 * blocks}, // BROADINV per upgrade + BROADQUERY per dirty read-back
		{"ctrl/dir_to_absent", 0},
		{"ctrl/dir_to_present1", blocks},         // first read of each block
		{"ctrl/dir_to_present_star", 2 * blocks}, // second read, then post-writeback reread
		{"ctrl/dir_to_present_m", blocks},        // each granted upgrade
	} {
		if got[c.name] != c.want {
			t.Errorf("%s = %d, want %d (totals: %v)", c.name, got[c.name], c.want, got)
		}
	}
}

// TestObsNilRecorderIsFree pins the nil path: a machine without a recorder
// runs the same workload untouched — no counters, no panics.
func TestObsNilRecorderIsFree(t *testing.T) {
	m, err := New(Config{Procs: 2, Modules: 1, CacheBlocks: 4, Blocks: 6})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(func(proc int, access func(addr.Ref) uint64) {
		for i := 0; i < 100; i++ {
			access(addr.Ref{Block: addr.Block(i % 6), Write: i%3 == 0})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

package obs

import (
	"reflect"
	"sort"
	"testing"

	"twobit/internal/rng"
	"twobit/internal/sim"
	"twobit/internal/workload"
)

// mapFalseShare is the false-sharing table the slot index replaced, kept
// verbatim as the model TestFalseShareDifferential holds Write to: a Go
// map from block to entry, append while not full, and an O(K) scan for
// the first least-written entry on eviction.
type mapFalseShare struct {
	fs    []mapFSEntry
	fsIdx map[uint64]int // block → index into fs; never iterated
	fsK   int
}

type mapFSEntry struct {
	block         uint64
	writes        int64
	wordMask      uint64 // bit w set: word w (mod 64) was written
	procMask      uint64 // bit p set: processor p (mod 64) wrote
	interleavings int64
	lastProc      int32
	lastWord      int32
	seen          bool
}

func (c *mapFalseShare) Write(block uint64, word, proc int) {
	var e *mapFSEntry
	if i, ok := c.fsIdx[block]; ok {
		e = &c.fs[i]
	} else if len(c.fs) < c.fsK {
		c.fsIdx[block] = len(c.fs)
		c.fs = append(c.fs, mapFSEntry{block: block})
		e = &c.fs[len(c.fs)-1]
	} else {
		min := 0
		for i := 1; i < len(c.fs); i++ {
			if c.fs[i].writes < c.fs[min].writes {
				min = i
			}
		}
		delete(c.fsIdx, c.fs[min].block)
		c.fsIdx[block] = min
		c.fs[min] = mapFSEntry{block: block}
		e = &c.fs[min]
	}
	e.writes++
	e.wordMask |= 1 << (uint(word) % 64)
	e.procMask |= 1 << (uint(proc) % 64)
	if e.seen && e.lastProc != int32(proc) && e.lastWord != int32(word) {
		e.interleavings++
	}
	e.lastProc, e.lastWord, e.seen = int32(proc), int32(word), true
}

// TestFalseShareDifferential: the index-backed false-sharing table and
// the map-plus-scan table it replaced hold the same blocks in the same
// slots with the same profiles after every write of 2,000 seeded streams
// (uniform and skewed blocks, K from 1 to three bitset words), and
// freeze to the same FalseShareStat list at the end. Eviction here lowers
// a count — a fresh entry starts at one write — which the top-K sketches
// never do.
func TestFalseShareDifferential(t *testing.T) {
	r := rng.New(0xfa15e, 5)
	for round := 0; round < 2000; round++ {
		k := []int{1, 2, 3, 63, 64, 65, 130}[round%7]
		c := New(0).EnableContention(k)
		model := &mapFalseShare{fsIdx: make(map[uint64]int, k), fsK: k}
		blocks := 1 + r.Intn(3*k+8)
		skewed := round/7%2 == 1
		for step, n := 0, k+16+r.Intn(4*k+32); step < n; step++ {
			b := uint64(r.Intn(blocks))
			if skewed {
				b = uint64(r.Intn(1 + r.Intn(blocks)))
			}
			word, proc := r.Intn(8), r.Intn(8)
			c.Write(b, word, proc)
			model.Write(b, word, proc)
			x := &c.fs
			if x.Len() != len(model.fs) {
				t.Fatalf("round %d step %d (K=%d): %d blocks, model %d", round, step, k, x.Len(), len(model.fs))
			}
			for s, m := range model.fs {
				e := x.Val(s)
				got := mapFSEntry{x.Key(s), x.Count(s), e.wordMask, e.procMask, e.interleavings, e.lastProc, e.lastWord, e.seen}
				if got != m {
					t.Fatalf("round %d step %d (K=%d): slot %d = %+v, model %+v", round, step, k, s, got, m)
				}
			}
		}
		want := make([]FalseShareStat, 0, len(model.fs))
		for _, m := range model.fs {
			want = append(want, FalseShareStat{Block: m.block, Writes: m.writes, WordMask: m.wordMask,
				ProcMask: m.procMask, Interleavings: m.interleavings})
		}
		sortFalseShare(want)
		if got := c.freezeFalseShare(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d (K=%d): frozen table\n got %+v\nwant %+v", round, k, got, want)
		}
	}
}

// FuzzFalseShare plays an arbitrary write script against the map model
// TestFalseShareDifferential uses, comparing slot for slot after every
// write. The first byte picks K; each later pair of bytes is one write,
// the first byte the block (256 of them, so K=64 evicts) and the second
// the word (low three bits) and the writing processor (next three).
// Eviction here is the index's one downward move: the fresh entry starts
// at one write whatever the evicted block's count. Scripts are cut at
// 512 bytes, as FuzzTopK's are.
func FuzzFalseShare(f *testing.F) {
	ks := []int{1, 2, 3, 4, 8, 63, 64, 65}
	// K=1: every new block evicts the one slot, and counts fall to 1.
	f.Add([]byte{0, 1, 0o11, 1, 0o22, 2, 0o11, 1, 0o33, 3, 0})
	// K=2: a block written many times outlives a stream of one-write
	// blocks, which evict each other at the floor.
	f.Add([]byte{1, 7, 1, 7, 0o12, 7, 0o23, 1, 0, 2, 0, 3, 0, 7, 0o34, 4, 0})
	// K=3: equal counts everywhere, so the lowest slot goes first.
	f.Add([]byte{2, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 1, 0o11, 7, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		script = script[:min(len(script), 512)]
		k := ks[int(script[0])%len(ks)]
		c := New(0).EnableContention(k)
		model := &mapFalseShare{fsIdx: make(map[uint64]int, k), fsK: k}
		for i := 1; i+1 < len(script); i += 2 {
			block, word, proc := uint64(script[i]), int(script[i+1]&7), int(script[i+1]>>3&7)
			c.Write(block, word, proc)
			model.Write(block, word, proc)
			x := &c.fs
			if x.Len() != len(model.fs) {
				t.Fatalf("write %d (K=%d): %d blocks, model %d", i/2, k, x.Len(), len(model.fs))
			}
			for s, m := range model.fs {
				e := x.Val(s)
				got := mapFSEntry{x.Key(s), x.Count(s), e.wordMask, e.procMask, e.interleavings, e.lastProc, e.lastWord, e.seen}
				if got != m {
					t.Fatalf("write %d (K=%d): slot %d = %+v, model %+v", i/2, k, s, got, m)
				}
			}
		}
	})
}

// TestContentionSetupAllocs pins what EnableContention(64) costs to set
// up: the profiler and its three tables, sized once. The map-plus-scan
// tables took 17 objects; the index must not take more, or every pooled
// observed run pays for it in allocs_per_ref.
func TestContentionSetupAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	r := New(0)
	allocs := testing.AllocsPerRun(20, func() {
		r.contention = nil
		r.EnableContention(DefaultContentionK)
	})
	if allocs > 17 {
		t.Fatalf("EnableContention(%d): %v allocations, want ≤ 17", DefaultContentionK, allocs)
	}
}

// streamRef is one reference as the cache agent reports it to the
// profiler.
type streamRef struct {
	block      uint64
	write      bool
	word, proc int
}

// paperStream is a paper-8p-shaped block stream: the §4.2 generator at
// q = 0.05, w = 0.2 over 16 shared blocks and 8 × (64 hot + 512 cold)
// private ones — 4,624 blocks against the profiler's K = 64, so most
// references miss the sketch and evict.
func paperStream(n int) []streamRef {
	g := workload.NewSharedPrivate(workload.SharedPrivateConfig{
		Procs: 8, SharedBlocks: 16, Q: 0.05, W: 0.2,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 64, ColdBlocks: 512, Seed: 1,
	})
	out := make([]streamRef, n)
	for i := range out {
		p := i % 8
		ref := g.Next(p)
		out[i] = streamRef{block: uint64(ref.Block), write: ref.Write, word: ref.Disp, proc: p}
	}
	return out
}

// BenchmarkContention times the profiler's per-reference work on the
// paper-8p-shaped stream, the way the cache agent calls it: Ref on every
// reference, Write on every write. One op is one reference.
func BenchmarkContention(b *testing.B) {
	stream := paperStream(1 << 16)
	c := New(0).EnableContention(DefaultContentionK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &stream[i&(len(stream)-1)]
		c.Ref(r.block)
		if r.write {
			c.Write(r.block, r.word, r.proc)
		}
	}
}

// timedRef is one reference of a paper-8p-shaped timeline: the stream
// reference, the class its cache gives it, when it issues and the
// phases it passes through on the way to retirement.
type timedRef struct {
	streamRef
	class RefClass
	at    sim.Time
	marks []timedMark
	done  sim.Time // retirement: the cache phase's tail ends here
}

// timedMark is one span mark: the phase it charges and its sim time.
type timedMark struct {
	ph Phase
	at sim.Time
}

// classMarks is each class's critical path as the two-bit machine's
// default configuration walks it: 4-cycle network hops, a one-cycle
// controller service, a 20-cycle memory read, a one-cycle cache touch.
var classMarks = [NumRefClasses][]timedMark{
	ClassReadHit:      nil,
	ClassReadMiss:     {{PhaseReplacement, 0}, {PhaseReqTransit, 4}, {PhaseQueue, 5}, {PhaseMemory, 25}, {PhaseDataReturn, 29}},
	ClassWriteHit:     nil,
	ClassWriteMiss:    {{PhaseReplacement, 0}, {PhaseReqTransit, 4}, {PhaseQueue, 5}, {PhaseMemory, 25}, {PhaseDataReturn, 29}},
	ClassWriteUpgrade: {{PhaseReqTransit, 4}, {PhaseQueue, 5}, {PhaseDataReturn, 9}},
}

// paperTimeline is paperStream(n) as eight caches would time it: each
// cache holds up to 128 blocks (the default 32 × 4 geometry, replaced
// first in first out), a write drops every other cache's copy, and a
// reference issues when its cache retired the previous one. The result
// is in issue order, as the machine's events are: sim time never falls.
func paperTimeline(n int) []timedRef {
	const caches, capacity = 8, 128
	type cacheModel struct {
		held  map[uint64]bool // block → modified
		fifo  []uint64
		ready sim.Time
	}
	cs := make([]cacheModel, caches)
	for i := range cs {
		cs[i].held = make(map[uint64]bool, capacity)
	}
	out := make([]timedRef, 0, n)
	for _, r := range paperStream(n) {
		c := &cs[r.proc]
		modified, held := c.held[r.block]
		class := ClassReadHit
		switch {
		case !held && r.write:
			class = ClassWriteMiss
		case !held:
			class = ClassReadMiss
		case r.write && modified:
			class = ClassWriteHit
		case r.write:
			class = ClassWriteUpgrade
		}
		if !held {
			if len(c.fifo) == capacity {
				delete(c.held, c.fifo[0])
				c.fifo = c.fifo[1:]
			}
			c.fifo = append(c.fifo, r.block)
		}
		c.held[r.block] = modified || r.write
		if r.write {
			for i := range cs {
				if i != r.proc {
					delete(cs[i].held, r.block) // its stale FIFO entry only shrinks the cache a while
				}
			}
		}
		tr := timedRef{streamRef: r, class: class, at: c.ready}
		for _, m := range classMarks[class] {
			tr.marks = append(tr.marks, timedMark{m.ph, c.ready + m.at})
		}
		tr.done = c.ready + 1
		if k := len(tr.marks); k > 0 {
			tr.done = tr.marks[k-1].at + 1
		}
		c.ready = tr.done
		out = append(out, tr)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

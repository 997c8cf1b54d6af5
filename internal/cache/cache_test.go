package cache

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"twobit/internal/addr"
	"twobit/internal/rng"
	"twobit/internal/sim"
)

func newTest(sets, assoc int, pol ReplacementPolicy) *Cache {
	return New(Config{Sets: sets, Assoc: assoc, Policy: pol, Seed: 1})
}

func fill(c *Cache, b addr.Block, data uint64) *Frame {
	v := c.Victim(b)
	c.Fill(v, b, data)
	return v
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Sets: 0, Assoc: 1}).Validate(); err == nil {
		t.Error("Sets=0 accepted")
	}
	if err := (Config{Sets: 1, Assoc: 0}).Validate(); err == nil {
		t.Error("Assoc=0 accepted")
	}
	if err := (Config{Sets: 4, Assoc: 2}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if (Config{Sets: 4, Assoc: 2}).Blocks() != 8 {
		t.Error("Blocks() wrong")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with bad config did not panic")
		}
	}()
	New(Config{})
}

func TestFillLookupAccess(t *testing.T) {
	c := newTest(4, 2, LRU)
	if c.Access(12) != nil {
		t.Fatal("access to empty cache hit")
	}
	fill(c, 12, 7)
	f := c.Access(12)
	if f == nil || f.Block != 12 || f.Data != 7 || !f.Valid || f.Modified {
		t.Fatalf("frame after fill = %+v", f)
	}
	if c.Stats().Hits.Value() != 1 || c.Stats().Misses.Value() != 1 {
		t.Fatalf("hit/miss counts = %d/%d", c.Stats().Hits.Value(), c.Stats().Misses.Value())
	}
}

func TestSetMapping(t *testing.T) {
	c := newTest(4, 1, LRU)
	// Blocks 0 and 4 share set 0; filling 4 must evict 0 in a direct-mapped set.
	fill(c, 0, 1)
	fill(c, 4, 2)
	if c.Lookup(0) != nil {
		t.Fatal("block 0 survived conflicting fill in direct-mapped set")
	}
	if c.Lookup(4) == nil {
		t.Fatal("block 4 absent after fill")
	}
	if c.Stats().Evictions.Value() != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions.Value())
	}
}

func TestLRUVictimSelection(t *testing.T) {
	c := newTest(1, 3, LRU)
	fill(c, 10, 0)
	fill(c, 20, 0)
	fill(c, 30, 0)
	c.Access(10) // 20 is now least recently used
	v := c.Victim(40)
	if v.Block != 20 {
		t.Fatalf("LRU victim = %v, want blk#20", v.Block)
	}
}

func TestFIFOVictimSelection(t *testing.T) {
	c := newTest(1, 3, FIFO)
	fill(c, 10, 0)
	fill(c, 20, 0)
	fill(c, 30, 0)
	c.Access(10) // recency must not matter for FIFO
	v := c.Victim(40)
	if v.Block != 10 {
		t.Fatalf("FIFO victim = %v, want blk#10", v.Block)
	}
}

func TestRandomVictimIsInSet(t *testing.T) {
	c := newTest(2, 4, Random)
	for b := addr.Block(0); b < 8; b++ {
		fill(c, b, 0)
	}
	for i := 0; i < 100; i++ {
		v := c.Victim(2) // set 0 holds even blocks
		if v.Block%2 != 0 {
			t.Fatalf("random victim %v not in set 0", v.Block)
		}
	}
}

func TestInvalidFramePreferredOverEviction(t *testing.T) {
	c := newTest(1, 2, LRU)
	fill(c, 1, 0)
	fill(c, 2, 0)
	c.Invalidate(1)
	v := c.Victim(3)
	if v.Valid {
		t.Fatal("victim is valid although an invalid frame exists")
	}
	c.Fill(v, 3, 0)
	if c.Lookup(2) == nil {
		t.Fatal("block 2 was evicted despite free frame")
	}
}

func TestInvalidate(t *testing.T) {
	c := newTest(2, 2, LRU)
	fill(c, 5, 0)
	f := c.Lookup(5)
	f.Modified = true
	f.Exclusive = true
	if !c.Invalidate(5) {
		t.Fatal("Invalidate of present block returned false")
	}
	if c.Lookup(5) != nil {
		t.Fatal("block present after invalidate")
	}
	if c.Invalidate(5) {
		t.Fatal("Invalidate of absent block returned true")
	}
}

func TestWritebackEvictionCounting(t *testing.T) {
	c := newTest(1, 1, LRU)
	fill(c, 1, 0)
	c.Lookup(1).Modified = true
	fill(c, 2, 0)
	if c.Stats().WritebackEv.Value() != 1 {
		t.Fatalf("writeback evictions = %d, want 1", c.Stats().WritebackEv.Value())
	}
}

func TestSnoopStolenCyclesWithoutDuplicateDirectory(t *testing.T) {
	c := newTest(2, 2, LRU)
	fill(c, 4, 0)
	c.Snoop(4) // hit
	c.Snoop(5) // miss: still steals a cycle without the duplicate directory
	s := c.Stats()
	if s.SnoopLookups.Value() != 2 || s.SnoopHits.Value() != 1 {
		t.Fatalf("snoop lookups/hits = %d/%d", s.SnoopLookups.Value(), s.SnoopHits.Value())
	}
	if s.StolenCycles.Value() != 2 {
		t.Fatalf("stolen cycles = %d, want 2", s.StolenCycles.Value())
	}
}

func TestSnoopStolenCyclesWithDuplicateDirectory(t *testing.T) {
	c := New(Config{Sets: 2, Assoc: 2, DuplicateDirectory: true})
	fill(c, 4, 0)
	c.Snoop(4) // hit: steals a cycle
	c.Snoop(5) // miss: filtered by the duplicate directory
	if got := c.Stats().StolenCycles.Value(); got != 1 {
		t.Fatalf("stolen cycles = %d, want 1", got)
	}
}

func TestContentsAndCount(t *testing.T) {
	c := newTest(4, 2, LRU)
	for b := addr.Block(0); b < 5; b++ {
		fill(c, b, uint64(b))
	}
	if c.Count() != 5 {
		t.Fatalf("Count = %d", c.Count())
	}
	seen := map[addr.Block]bool{}
	for _, f := range validFrames(c) {
		seen[f.Block] = true
	}
	for b := addr.Block(0); b < 5; b++ {
		if !seen[b] {
			t.Fatalf("Contents missing %v", b)
		}
	}
}

// Property: under arbitrary fill/invalidate sequences, Count and Lookup
// stay consistent with the frames.
func TestPropertyIndexConsistency(t *testing.T) {
	r := rng.New(17, 3)
	if err := quick.Check(func(opsRaw uint8) bool {
		ops := int(opsRaw) + 10
		c := newTest(4, 2, LRU)
		for i := 0; i < ops; i++ {
			b := addr.Block(r.Intn(32))
			if r.Bool(0.3) {
				c.Invalidate(b)
			} else {
				if c.Lookup(b) == nil {
					fill(c, b, uint64(i))
				}
			}
		}
		// Every counted block must be found by Lookup and vice versa.
		contents := validFrames(c)
		if len(contents) != c.Count() {
			return false
		}
		for _, f := range contents {
			got := c.Lookup(f.Block)
			if got == nil || got.Block != f.Block {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a fill never leaves two frames holding the same block.
func TestPropertyNoDuplicateBlocks(t *testing.T) {
	r := rng.New(23, 4)
	c := newTest(8, 4, LRU)
	for i := 0; i < 5000; i++ {
		b := addr.Block(r.Intn(64))
		if c.Lookup(b) == nil {
			fill(c, b, uint64(i))
		}
		if r.Bool(0.1) {
			c.Invalidate(addr.Block(r.Intn(64)))
		}
	}
	seen := map[addr.Block]bool{}
	for _, f := range validFrames(c) {
		if seen[f.Block] {
			t.Fatalf("duplicate frame for %v", f.Block)
		}
		seen[f.Block] = true
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || Random.String() != "Random" {
		t.Error("policy names wrong")
	}
	if ReplacementPolicy(9).String() == "" {
		t.Error("unknown policy has empty name")
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := newTest(64, 4, LRU)
	for blk := addr.Block(0); blk < 64; blk++ {
		fill(c, blk, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addr.Block(i % 64))
	}
}

func BenchmarkFillEvict(b *testing.B) {
	c := newTest(16, 2, LRU)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := addr.Block(i % 128)
		if c.Lookup(blk) == nil {
			v := c.Victim(blk)
			c.Fill(v, blk, 0)
		}
	}
}

func TestEvictByFrameIdentity(t *testing.T) {
	c := newTest(2, 2, LRU)
	fill(c, 2, 7)
	f := c.Lookup(2)
	f.Modified = true
	f.Exclusive = true
	c.Evict(f)
	if f.Valid || f.Modified || f.Exclusive {
		t.Fatalf("frame not cleared: %+v", f)
	}
	if c.Lookup(2) != nil {
		t.Fatal("Lookup still resolves an evicted block")
	}
	// Evicting an invalid frame is a no-op.
	c.Evict(f)
}

// With no side index there is one notion of residency — a valid frame
// whose tag matches — so the stale-duplicate situation Evict once had to
// survive (an index entry pointing at one frame while another still
// held the block) cannot be built quietly: resurrecting an invalidated
// frame makes the block resident again, and a Fill of it into any other
// way is caught before it can create a second copy.
func TestFillPanicsOnResurrectedDuplicate(t *testing.T) {
	c := newTest(1, 2, LRU)
	fill(c, 2, 1)
	stale := c.Lookup(2)
	c.Invalidate(2)
	if c.Lookup(2) != nil || c.Count() != 0 {
		t.Fatal("block resident after Invalidate")
	}
	stale.Valid = true // what no protocol may do: flip the bit behind the cache's back
	if c.Lookup(2) != stale {
		t.Fatal("way scan does not see the resurrected frame")
	}
	other := &c.frames[0]
	if other == stale {
		other = &c.frames[1]
	}
	defer func() {
		r := recover()
		if s, _ := r.(string); !strings.Contains(s, "would duplicate a resident block") {
			t.Fatalf("Fill into a second way: panic = %v, want the duplicate-resident one", r)
		}
		if got := c.Lookup(2); got != stale || got.Data != 1 {
			t.Fatalf("refused Fill disturbed the resident frame: %+v", got)
		}
	}()
	c.Fill(other, 2, 9)
}

// cacheModel is what a cache must look like from outside: which blocks
// are resident with which data, and what the counters have seen.
type cacheModel struct {
	data  map[addr.Block]uint64
	dirty map[addr.Block]bool
	stats Stats
}

func (m *cacheModel) drop(b addr.Block) { delete(m.data, b); delete(m.dirty, b) }

// check compares everything observable — Count, Contents, a Lookup of
// every modelled block and of b, and all seven counters.
func (m *cacheModel) check(t *testing.T, c *Cache, b addr.Block, step int, op string) {
	t.Helper()
	if c.Count() != len(m.data) {
		t.Fatalf("step %d %s: Count = %d, model holds %d", step, op, c.Count(), len(m.data))
	}
	contents := validFrames(c)
	if len(contents) != len(m.data) {
		t.Fatalf("step %d %s: Contents has %d frames, model %d", step, op, len(contents), len(m.data))
	}
	for _, f := range contents {
		d, ok := m.data[f.Block]
		if !ok || d != f.Data || f.Modified != m.dirty[f.Block] {
			t.Fatalf("step %d %s: Contents frame %+v, model data %d present %v dirty %v", step, op, f, d, ok, m.dirty[f.Block])
		}
		if got := c.Lookup(f.Block); got == nil || *got != f {
			t.Fatalf("step %d %s: Lookup(%v) = %+v, Contents says %+v", step, op, f.Block, got, f)
		}
	}
	if _, ok := m.data[b]; !ok && c.Lookup(b) != nil {
		t.Fatalf("step %d %s: Lookup(%v) finds a block the model dropped", step, op, b)
	}
	if c.stats != m.stats {
		t.Fatalf("step %d %s: stats = %+v, model %+v", step, op, c.stats, m.stats)
	}
}

// TestCacheModel drives every mutating operation at random against a
// map model, for every replacement policy, associativity 1/2/4/8 and
// power-of-two and other set counts, checking the whole observable
// state after every step; then a Reset cache must equal a New one.
func TestCacheModel(t *testing.T) {
	for _, pol := range []ReplacementPolicy{LRU, FIFO, Random} {
		for _, assoc := range []int{1, 2, 4, 8} {
			for _, sets := range []int{1, 3, 4, 7} {
				cfg := Config{Sets: sets, Assoc: assoc, Policy: pol, DuplicateDirectory: (sets+assoc)%2 == 0, Seed: uint64(sets*assoc) + 1}
				t.Run(fmt.Sprintf("%v/%dx%d", pol, sets, assoc), func(t *testing.T) { cacheModelRun(t, cfg) })
			}
		}
	}
}

func cacheModelRun(t *testing.T, cfg Config) {
	c := New(cfg)
	m := &cacheModel{data: map[addr.Block]uint64{}, dirty: map[addr.Block]bool{}}
	r := rng.New(cfg.Seed, 0xcac4e)
	span := 3*cfg.Blocks() + 2 // enough blocks to conflict in every set
	for step := 0; step < 1500; step++ {
		b := addr.Block(r.Intn(span))
		_, resident := m.data[b]
		var op string
		switch k := r.Intn(10); {
		case k < 3:
			op = "Access"
			f := c.Access(b)
			if (f != nil) != resident {
				t.Fatalf("step %d: Access(%v) hit = %v, model resident = %v", step, b, f != nil, resident)
			}
			if resident {
				m.stats.Hits.Inc()
				if r.Bool(0.3) {
					f.Modified, m.dirty[b] = true, true
				}
			} else {
				m.stats.Misses.Inc()
			}
		case k < 6:
			op = "Victim+Fill"
			if resident {
				continue
			}
			v := c.Victim(b)
			if v.Valid {
				if c.setFor(v.Block) != c.setFor(b) {
					t.Fatalf("step %d: Victim(%v) = %v, another set's frame", step, b, v.Block)
				}
				m.stats.Evictions.Inc()
				if v.Modified {
					m.stats.WritebackEv.Inc()
				}
				m.drop(v.Block)
			}
			c.Fill(v, b, uint64(step))
			m.data[b] = uint64(step)
		case k < 7:
			op = "Invalidate"
			if c.Invalidate(b) != resident {
				t.Fatalf("step %d: Invalidate(%v) = %v, model resident = %v", step, b, !resident, resident)
			}
			m.drop(b)
		case k < 8:
			op = "Evict"
			f := c.Victim(b) // valid or not: Evict of an invalid frame is a no-op
			if f.Valid {
				m.drop(f.Block)
			}
			c.Evict(f)
		default:
			op = "Snoop"
			if f := c.Snoop(b); (f != nil) != resident {
				t.Fatalf("step %d: Snoop(%v) hit = %v, model resident = %v", step, b, f != nil, resident)
			}
			m.stats.SnoopLookups.Inc()
			if resident {
				m.stats.SnoopHits.Inc()
			}
			if resident || !cfg.DuplicateDirectory {
				m.stats.StolenCycles.Inc()
			}
		}
		m.check(t, c, b, step, op)
	}
	if c.stats.Hits.Value() == 0 || c.stats.Evictions.Value() == 0 || c.stats.SnoopHits.Value() == 0 {
		t.Fatalf("run exercised nothing: %+v", c.stats)
	}
	next := Config{Sets: cfg.Sets, Assoc: cfg.Assoc, Policy: (cfg.Policy + 1) % 3, Seed: cfg.Seed + 9}
	c.Reset(next)
	if !reflect.DeepEqual(c, New(next)) {
		t.Fatalf("Reset cache differs from a New one:\n reset: %+v\n new:   %+v", c, New(next))
	}
}

// TestZeroAllocCache: hits, fills with eviction, snoops and invalidates
// on a warmed cache allocate nothing.
func TestZeroAllocCache(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const ops, span = 4096, 1024 // 4× the cache: fills evict
	c, r := newTest(64, 4, LRU), rng.New(0, 0)
	pass := func() {
		r.Reseed(11, 0xcac4e)
		for i := 0; i < ops; i++ {
			b := addr.Block(r.Intn(span))
			switch i % 4 {
			case 0, 1:
				if c.Access(b) == nil {
					c.Fill(c.Victim(b), b, uint64(i))
				}
			case 2:
				c.Snoop(b)
			default:
				c.Invalidate(b)
			}
		}
	}
	pass()
	if c.Stats().Hits.Value() == 0 || c.Stats().Evictions.Value() == 0 || c.Stats().SnoopHits.Value() == 0 {
		t.Fatalf("warm-up pass exercised nothing: %+v", c.stats)
	}
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Errorf("a warmed cache allocates %v per %d operations, want 0", allocs, ops)
	}
}

// TestSetForIsModulo: the set index equals b mod Sets whether Sets takes
// the mask path (a power of two) or the divide.
func TestSetForIsModulo(t *testing.T) {
	r := rng.New(5, 0x5e7)
	for _, sets := range []int{1, 2, 3, 7, 64, 100, 4096} {
		c := New(Config{Sets: sets, Assoc: 1})
		for i := 0; i < 2000; i++ {
			b := r.Uint64() >> r.Intn(64)
			if got, want := c.setFor(addr.Block(b)), int(b%uint64(sets)); got != want {
				t.Fatalf("Sets %d: setFor(%d) = %d, want %d", sets, b, got, want)
			}
		}
	}
}

// validFrames copies out the valid frames of c.
func validFrames(c *Cache) []Frame {
	var out []Frame
	for _, f := range c.Frames() {
		if f.Valid {
			out = append(out, f)
		}
	}
	return out
}

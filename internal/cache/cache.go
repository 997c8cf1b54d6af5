// Package cache implements the private per-processor cache of Figure 3-1:
// a set-associative, write-back cache whose frames carry the valid and
// modified bits the paper's protocols manipulate.
//
// The package is purely the storage structure and its local bookkeeping;
// the coherence behavior (what to send on a miss, how to answer a
// BROADQUERY, ...) lives in the protocol packages, which drive a Cache
// through its exported operations. Data is modeled as a version number per
// block (see the linearizability oracle in internal/system).
package cache

import (
	"fmt"

	"twobit/internal/addr"
	"twobit/internal/rng"
	"twobit/internal/stats"
)

// ReplacementPolicy selects the victim frame within a set.
type ReplacementPolicy uint8

const (
	// LRU evicts the least recently used frame.
	LRU ReplacementPolicy = iota
	// FIFO evicts the frame filled longest ago.
	FIFO
	// Random evicts a uniformly random frame.
	Random
)

// String names the policy.
func (p ReplacementPolicy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	}
	return fmt.Sprintf("ReplacementPolicy(%d)", uint8(p))
}

// Frame is one cache block frame: the local state of Table 3-1's b_k.
type Frame struct {
	Block    addr.Block // tag: which memory block occupies the frame
	Valid    bool       // valid bit
	Modified bool       // modified (dirty) bit
	// Exclusive is the extra local state of the Yen–Fu variant (§2.4.3)
	// and Goodman's "Reserved" (§2.5): this cache holds the only copy and
	// it is clean, so a write may proceed without a global transaction.
	Exclusive bool
	Data      uint64 // data version currently held

	lastUse  uint64 // for LRU
	filledAt uint64 // for FIFO
}

// Config sizes a cache.
type Config struct {
	Sets   int               // number of sets; must be ≥ 1
	Assoc  int               // ways per set; must be ≥ 1
	Policy ReplacementPolicy // victim selection policy
	// DuplicateDirectory enables the §4.4 parallel-controller enhancement:
	// a duplicate copy of the cache directory answers broadcast lookups
	// without stealing a cycle from the processor unless the block is
	// actually present.
	DuplicateDirectory bool
	// Seed seeds the Random replacement policy.
	Seed uint64
}

// Validate reports an error for unusable configurations.
func (c Config) Validate() error {
	if c.Sets < 1 {
		return fmt.Errorf("cache: Sets must be ≥ 1, got %d", c.Sets)
	}
	if c.Assoc < 1 {
		return fmt.Errorf("cache: Assoc must be ≥ 1, got %d", c.Assoc)
	}
	return nil
}

// Blocks returns the capacity in blocks.
func (c Config) Blocks() int { return c.Sets * c.Assoc }

// Stats counts local cache events. Snoop-related counters implement the
// paper's "stolen cycles" accounting: a broadcast command received by a
// cache costs it one directory cycle unless a duplicate directory filters
// it (in which case only actual hits cost a cache cycle).
type Stats struct {
	Hits         stats.Counter `json:"hits"`                // processor references satisfied locally
	Misses       stats.Counter `json:"misses"`              // processor references requiring a transaction
	Evictions    stats.Counter `json:"evictions"`           // valid frames replaced
	WritebackEv  stats.Counter `json:"writeback_evictions"` // evictions of modified frames
	SnoopLookups stats.Counter `json:"snoop_lookups"`       // broadcast commands that consulted the directory
	SnoopHits    stats.Counter `json:"snoop_hits"`          // broadcast commands that found the block present
	StolenCycles stats.Counter `json:"stolen_cycles"`       // cache cycles lost to servicing external commands
}

// Cache is a set-associative cache. It is not safe for concurrent use; in
// the event-driven simulator each cache is owned by one component, and the
// goroutine runtime wraps accesses in its own synchronization.
type Cache struct {
	cfg Config
	// frames is every frame, set-major: set i is frames[i*Assoc:(i+1)*Assoc].
	frames []Frame
	// pow2 says Sets is a power of two, so setFor is b & mask (mask is
	// Sets-1 either way); decided once in New.
	pow2   bool
	mask   uint64
	clock  uint64 // logical use counter for LRU/FIFO
	random *rng.PCG
	stats  Stats
	count  int // valid frames
}

// New constructs a cache. It panics on an invalid Config (construction is
// programmer-controlled, not input-controlled).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := uint64(cfg.Sets)
	return &Cache{
		cfg:    cfg,
		frames: make([]Frame, cfg.Sets*cfg.Assoc),
		pow2:   sets&(sets-1) == 0,
		mask:   sets - 1,
		random: rng.New(cfg.Seed, 0x5eed),
	}
}

// Reset restores the cache to its freshly-constructed state under cfg,
// reusing the frame arrays. The geometry (Sets, Assoc) must match the
// construction geometry — geometry is machine shape, owned by whoever
// decides to pool or rebuild; value parameters (Policy,
// DuplicateDirectory, Seed) may differ freely. It panics on an invalid
// or geometry-changing Config, mirroring New.
func (c *Cache) Reset(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Sets != c.cfg.Sets || cfg.Assoc != c.cfg.Assoc {
		panic(fmt.Sprintf("cache: Reset geometry %dx%d differs from construction %dx%d",
			cfg.Sets, cfg.Assoc, c.cfg.Sets, c.cfg.Assoc))
	}
	c.cfg = cfg
	clear(c.frames)
	c.clock = 0
	c.random.Reseed(cfg.Seed, 0x5eed)
	c.stats = Stats{}
	c.count = 0
}

// Config returns the construction configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a pointer to the cache's counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// setFor maps a block to its set index, b mod Sets: a mask when Sets is a
// power of two (every benchmark geometry), a divide otherwise.
func (c *Cache) setFor(b addr.Block) int {
	if c.pow2 {
		return int(uint64(b) & c.mask)
	}
	return int(uint64(b) % (c.mask + 1))
}

// set returns the ways of b's set.
func (c *Cache) set(b addr.Block) []Frame {
	i := c.setFor(b) * c.cfg.Assoc
	return c.frames[i : i+c.cfg.Assoc]
}

// Lookup returns the frame holding block b, or nil. It counts neither hit
// nor miss; use Access for processor references. It compares one set's tags,
// as the hardware does; which way matches is data no branch predictor learns,
// so the scan has no early exit and compiles to conditional moves.
func (c *Cache) Lookup(b addr.Block) *Frame {
	set := c.set(b)
	hit := -1
	for i := range set {
		diff := set[i].Block ^ b
		if !set[i].Valid {
			diff = 1
		}
		if diff == 0 {
			hit = i
		}
	}
	if hit < 0 {
		return nil
	}
	return &set[hit]
}

// Access performs the local part of a processor reference: on a hit it
// updates recency and returns the frame; on a miss it returns nil. The
// hit/miss counters are updated. Access never changes valid/modified bits —
// that is protocol business.
func (c *Cache) Access(b addr.Block) *Frame {
	f := c.Lookup(b)
	if f == nil {
		c.stats.Misses.Inc()
		return nil
	}
	c.stats.Hits.Inc()
	c.clock++
	f.lastUse = c.clock
	return f
}

// Victim returns the frame that a fill of block b would replace, without
// modifying anything. If an invalid frame exists in the set it is chosen
// first (no replacement needed). The returned frame may be inspected for
// the EJECT decision before calling Fill.
func (c *Cache) Victim(b addr.Block) *Frame {
	set := c.set(b)
	for i := range set {
		if !set[i].Valid {
			return &set[i]
		}
	}
	switch c.cfg.Policy {
	case FIFO:
		best := 0
		for i := range set {
			if set[i].filledAt < set[best].filledAt {
				best = i
			}
		}
		return &set[best]
	case Random:
		return &set[c.random.Intn(len(set))]
	default: // LRU
		best := 0
		for i := range set {
			if set[i].lastUse < set[best].lastUse {
				best = i
			}
		}
		return &set[best]
	}
}

// Fill installs block b with data version data into the given victim frame
// (which must belong to b's set — Victim guarantees this). The previous
// occupant, if valid, is evicted and counted. The new frame is valid,
// unmodified and non-exclusive; callers set Modified/Exclusive afterwards
// as their protocol dictates.
func (c *Cache) Fill(victim *Frame, b addr.Block, data uint64) {
	if f := c.Lookup(b); f != nil && f != victim {
		panic(fmt.Sprintf("cache: Fill(%v) would duplicate a resident block", b))
	}
	if victim.Valid {
		c.stats.Evictions.Inc()
		if victim.Modified {
			c.stats.WritebackEv.Inc()
		}
	} else {
		c.count++
	}
	c.clock++
	*victim = Frame{
		Block:    b,
		Valid:    true,
		Data:     data,
		lastUse:  c.clock,
		filledAt: c.clock,
	}
}

// Evict clears a specific frame (from Victim or Lookup): unlike Invalidate it
// names the frame, not the block, so replacement code uses it for the victim.
func (c *Cache) Evict(f *Frame) {
	if !f.Valid {
		return
	}
	c.count--
	f.Valid = false
	f.Modified = false
	f.Exclusive = false
}

// Invalidate clears block b if present and reports whether it was present.
// The modified bit is discarded (the protocols write back *before*
// invalidating where required).
func (c *Cache) Invalidate(b addr.Block) bool {
	f := c.Lookup(b)
	if f != nil {
		c.Evict(f)
	}
	return f != nil
}

// Snoop consults the directory on behalf of an external (broadcast or
// directed) command and returns the frame if the block is present. It
// applies the §4.4 duplicate-directory accounting: without the duplicate
// directory every snoop steals a cache cycle; with it only snoop hits do.
func (c *Cache) Snoop(b addr.Block) *Frame {
	c.stats.SnoopLookups.Inc()
	f := c.Lookup(b)
	if f != nil {
		c.stats.SnoopHits.Inc()
		c.stats.StolenCycles.Inc()
	} else if !c.cfg.DuplicateDirectory {
		c.stats.StolenCycles.Inc()
	}
	return f
}

// Frames returns every frame, valid or not, set-major, for invariant
// checks, which index the valid ones without copying them out first. It
// is the cache's own array, not a copy: callers must not write to it —
// state changes go through Fill, Evict and Invalidate, which keep Count.
func (c *Cache) Frames() []Frame { return c.frames }

// Count returns the number of valid frames.
func (c *Cache) Count() int { return c.count }

package directory

import (
	"twobit/internal/addr"
	"twobit/internal/stats"
)

// TranslationBuffer is the §4.4 enhancement: a small fully-associative LRU
// buffer at a memory controller that remembers, for recently handled
// blocks, the set of caches owning copies. When a command must be sent to
// unknown owners, a hit in this buffer converts the broadcast into
// directed sends exactly as the full map would; a miss falls back to the
// broadcast of the unmodified two-bit scheme.
//
// The entry stores the owner set as a bitmask, so the buffer's per-entry
// cost grows with n — but the number of entries is small and fixed, which
// is what keeps the scheme economical.
type TranslationBuffer struct {
	capacity int
	entries  map[addr.Block]*tbEntry
	// LRU list: most recent at front.
	head, tail *tbEntry
	stats      TBStats
}

// TBStats counts translation-buffer outcomes.
type TBStats struct {
	Hits      stats.Counter // lookups that found an entry
	Misses    stats.Counter // lookups that had to fall back to broadcast
	Evictions stats.Counter // entries displaced by capacity
}

type tbEntry struct {
	block      addr.Block
	owners     uint64 // bitmask of caches known to hold a copy
	prev, next *tbEntry
}

// NewTranslationBuffer returns a buffer with the given entry capacity.
// Capacity 0 yields a buffer that always misses (the unmodified scheme).
func NewTranslationBuffer(capacity int) *TranslationBuffer {
	if capacity < 0 {
		capacity = 0
	}
	return &TranslationBuffer{
		capacity: capacity,
		entries:  make(map[addr.Block]*tbEntry, capacity),
	}
}

// Reset empties the buffer and resizes it to capacity, reusing the entry
// map. Semantics match NewTranslationBuffer (negative capacity → 0).
func (t *TranslationBuffer) Reset(capacity int) {
	if capacity < 0 {
		capacity = 0
	}
	t.capacity = capacity
	clear(t.entries)
	t.head, t.tail = nil, nil
	t.stats = TBStats{}
}

// Stats returns the buffer's counters.
func (t *TranslationBuffer) Stats() *TBStats { return &t.stats }

// Len returns the number of live entries.
func (t *TranslationBuffer) Len() int { return len(t.entries) }

func (t *TranslationBuffer) unlink(e *tbEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		t.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		t.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (t *TranslationBuffer) pushFront(e *tbEntry) {
	e.next = t.head
	if t.head != nil {
		t.head.prev = e
	}
	t.head = e
	if t.tail == nil {
		t.tail = e
	}
}

// Lookup returns the known owner set for block and whether the buffer had
// an entry. A hit refreshes recency.
func (t *TranslationBuffer) Lookup(block addr.Block) (owners []int, ok bool) {
	e, found := t.entries[block]
	if !found {
		t.stats.Misses.Inc()
		return nil, false
	}
	t.stats.Hits.Inc()
	t.unlink(e)
	t.pushFront(e)
	return MaskToList(e.owners), true
}

// Record notes that exactly the caches in owners hold copies of block,
// replacing any previous entry. Recording an empty owner set still creates
// an entry: "no cache holds it" is as useful as a list of holders.
func (t *TranslationBuffer) Record(block addr.Block, owners []int) {
	if t.capacity == 0 {
		return
	}
	var mask uint64
	for _, c := range owners {
		mask |= 1 << uint(c)
	}
	if e, found := t.entries[block]; found {
		e.owners = mask
		t.unlink(e)
		t.pushFront(e)
		return
	}
	if len(t.entries) >= t.capacity {
		victim := t.tail
		t.unlink(victim)
		delete(t.entries, victim.block)
		t.stats.Evictions.Inc()
	}
	e := &tbEntry{block: block, owners: mask}
	t.entries[block] = e
	t.pushFront(e)
}

// AddOwner adds cache to block's owner set if an entry exists (e.g. after
// servicing a read miss the controller knows one more holder).
func (t *TranslationBuffer) AddOwner(block addr.Block, cache int) {
	if e, found := t.entries[block]; found {
		e.owners |= 1 << uint(cache)
	}
}

// RemoveOwner removes cache from block's owner set if an entry exists.
func (t *TranslationBuffer) RemoveOwner(block addr.Block, cache int) {
	if e, found := t.entries[block]; found {
		e.owners &^= 1 << uint(cache)
	}
}

// Drop removes block's entry if present (e.g. on conflicting information).
func (t *TranslationBuffer) Drop(block addr.Block) {
	if e, found := t.entries[block]; found {
		t.unlink(e)
		delete(t.entries, block)
	}
}

// HitRatio returns hits / (hits+misses), or 0 with no lookups.
func (t *TranslationBuffer) HitRatio() float64 {
	h, m := t.stats.Hits.Value(), t.stats.Misses.Value()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

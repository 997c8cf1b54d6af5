package directory

import "math/bits"

// DupTagStore is the Tang-style (§2.4.1) central duplicate of every
// cache's directory: per cache, the tags it holds, each with its
// modified bit. The central controller updates it on every cache
// directory change and can therefore answer "which caches hold block a?"
// exactly, like the full map, through the same method set — the cost is
// that the answer takes a search of all n duplicates, and the
// centralization the controller's policy charges for
// (internal/duplication).
type DupTagStore struct {
	// tags[c] duplicates cache c's directory: block → modified bit.
	tags []map[int]bool
	// The last search — which block, and the holders it found — kept
	// current by every update, so the several questions and updates one
	// command makes about its block cost one search of the duplicates.
	searched int
	found    uint64
}

// NewDupTagStore returns a store for caches caches.
func NewDupTagStore(caches int) *DupTagStore {
	t := make([]map[int]bool, caches)
	for i := range t {
		t[i] = make(map[int]bool)
	}
	return &DupTagStore{tags: t, searched: -1}
}

// Reset empties every duplicate directory, reusing the maps.
func (d *DupTagStore) Reset() {
	for _, t := range d.tags {
		clear(t)
	}
	d.searched = -1
}

// Caches returns the number of tracked caches.
func (d *DupTagStore) Caches() int { return len(d.tags) }

// HolderMask returns the caches holding block, bit k set for cache k.
func (d *DupTagStore) HolderMask(block int) uint64 {
	if d.searched != block {
		d.searched, d.found = block, 0
		for c, t := range d.tags {
			if _, held := t[block]; held {
				d.found |= 1 << uint(c)
			}
		}
	}
	return d.found
}

// Holders returns the caches holding block, ascending.
func (d *DupTagStore) Holders(block int) []int { return MaskToList(d.HolderMask(block)) }

// Modified reports whether some cache's tag for block is marked modified.
func (d *DupTagStore) Modified(block int) bool {
	for m := d.HolderMask(block); m != 0; m &= m - 1 {
		if d.tags[bits.TrailingZeros64(m)][block] {
			return true
		}
	}
	return false
}

// SetPresent records that cache gained (clean) or lost its copy of
// block. Losing the tag loses its modified bit with it.
func (d *DupTagStore) SetPresent(block, cache int, present bool) {
	bit := uint64(1) << uint(cache)
	held := d.HolderMask(block)&bit != 0
	switch {
	case present && !held:
		d.tags[cache][block] = false
		d.found |= bit
	case !present && held:
		delete(d.tags[cache], block)
		d.found &^= bit
	}
}

// SetModified sets the modified bit on every tag of block — the
// controller only marks a block modified while it has one holder.
func (d *DupTagStore) SetModified(block int, mod bool) {
	for m := d.HolderMask(block); m != 0; m &= m - 1 {
		d.tags[bits.TrailingZeros64(m)][block] = mod
	}
}

// Clear drops every cache's tag for block.
func (d *DupTagStore) Clear(block int) {
	for m := d.HolderMask(block); m != 0; m &= m - 1 {
		delete(d.tags[bits.TrailingZeros64(m)], block)
	}
	d.found = 0
}

// Package directory implements the global-state stores that the coherence
// protocols consult:
//
//   - TwoBitMap: the paper's contribution — two bits per block encoding
//     Absent / Present1 / Present* / PresentM, packed 4 states per byte so
//     the hardware economy is mirrored in the data structure.
//   - FullMap: the Censier–Feautrier n+1-bit presence vector (one bit per
//     cache plus a modified bit).
//   - TranslationBuffer: the §4.4 enhancement — a small LRU cache at the
//     memory controller remembering which caches own copies of recently
//     handled blocks, so broadcasts can be turned into directed sends.
//   - DupTagStore: the Tang central duplicate of every cache's directory.
package directory

import (
	"fmt"
	"math/bits"
)

// State is the global state of a memory block in the two-bit scheme.
type State uint8

const (
	// Absent: not present in any cache.
	Absent State = iota
	// Present1: present in exactly one cache, read-only.
	Present1
	// PresentStar: present in zero or more caches, read-only. The apparent
	// anomaly ("zero or more") is the paper's: clean ejections from
	// PresentStar are not tracked, so the state may overcount.
	PresentStar
	// PresentM: present in exactly one cache and modified there.
	PresentM
)

// String returns the paper's name for the state.
func (s State) String() string {
	switch s {
	case Absent:
		return "Absent"
	case Present1:
		return "Present1"
	case PresentStar:
		return "Present*"
	case PresentM:
		return "PresentM"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// TwoBitMap stores two bits of global state per block, packed four blocks
// per byte. This is the directory whose size is independent of the number
// of processors — the paper's central hardware economy.
type TwoBitMap struct {
	bits   []byte
	blocks int
}

// NewTwoBitMap returns a map for blocks blocks, all Absent.
func NewTwoBitMap(blocks int) *TwoBitMap {
	if blocks < 0 {
		panic(fmt.Sprintf("directory: negative block count %d", blocks))
	}
	return &TwoBitMap{bits: make([]byte, (blocks+3)/4), blocks: blocks}
}

// Reset returns every block to Absent, reusing the packed bit array.
func (m *TwoBitMap) Reset() { clear(m.bits) }

// Blocks returns the number of blocks tracked.
func (m *TwoBitMap) Blocks() int { return m.blocks }

// SizeBytes returns the storage footprint of the map in bytes, used by the
// cost-model comparison against the full map.
func (m *TwoBitMap) SizeBytes() int { return len(m.bits) }

func (m *TwoBitMap) check(block int) {
	if block < 0 || block >= m.blocks {
		panic(fmt.Sprintf("directory: block %d out of range [0,%d)", block, m.blocks))
	}
}

// Get returns the state of block.
func (m *TwoBitMap) Get(block int) State {
	m.check(block)
	shift := uint(block&3) * 2
	return State(m.bits[block>>2] >> shift & 3)
}

// Set is the paper's SETSTATE(a, st).
func (m *TwoBitMap) Set(block int, s State) {
	m.check(block)
	shift := uint(block&3) * 2
	b := &m.bits[block>>2]
	*b = *b&^(3<<shift) | byte(s)<<shift
}

// FullMap is the n+1-bit-per-block directory of §2.4.2: a presence bit per
// cache (e_k) plus a modified bit (m). It supports up to 64 caches per
// word; the paper's comparisons stop at 64 processors.
type FullMap struct {
	presence []uint64
	modified []bool
	caches   int
}

// NewFullMap returns a full map for blocks blocks and caches caches.
func NewFullMap(blocks, caches int) *FullMap {
	if blocks < 0 {
		panic(fmt.Sprintf("directory: negative block count %d", blocks))
	}
	if caches < 1 || caches > 64 {
		panic(fmt.Sprintf("directory: cache count %d outside [1,64]", caches))
	}
	return &FullMap{
		presence: make([]uint64, blocks),
		modified: make([]bool, blocks),
		caches:   caches,
	}
}

// Reset returns every block to the Absent equivalent (no holders,
// unmodified), reusing the presence and modified arrays.
func (m *FullMap) Reset() {
	clear(m.presence)
	clear(m.modified)
}

// Blocks returns the number of blocks tracked.
func (m *FullMap) Blocks() int { return len(m.presence) }

// Caches returns the presence-vector width.
func (m *FullMap) Caches() int { return m.caches }

// SizeBytes returns the storage footprint in bytes ((n+1) bits per block,
// rounded up per block), for the economy comparison of §3.1.
func (m *FullMap) SizeBytes() int { return len(m.presence) * ((m.caches + 1 + 7) / 8) }

func (m *FullMap) check(block, cache int) {
	if block < 0 || block >= len(m.presence) {
		panic(fmt.Sprintf("directory: block %d out of range [0,%d)", block, len(m.presence)))
	}
	if cache < -1 || cache >= m.caches {
		panic(fmt.Sprintf("directory: cache %d out of range [0,%d)", cache, m.caches))
	}
}

// Present reports whether cache holds a copy of block (bit e_cache).
func (m *FullMap) Present(block, cache int) bool {
	m.check(block, cache)
	return m.presence[block]>>uint(cache)&1 == 1
}

// SetPresent sets or clears e_cache for block.
func (m *FullMap) SetPresent(block, cache int, present bool) {
	m.check(block, cache)
	if present {
		m.presence[block] |= 1 << uint(cache)
	} else {
		m.presence[block] &^= 1 << uint(cache)
	}
}

// Modified reports the m bit for block.
func (m *FullMap) Modified(block int) bool {
	m.check(block, -1)
	return m.modified[block]
}

// SetModified sets the m bit for block.
func (m *FullMap) SetModified(block int, mod bool) {
	m.check(block, -1)
	m.modified[block] = mod
}

// HolderMask returns block's presence vector, bit k set when cache k
// holds a copy — the allocation-free form the controller walks on every
// invalidate and purge.
func (m *FullMap) HolderMask(block int) uint64 {
	m.check(block, -1)
	return m.presence[block]
}

// Holders returns the caches whose presence bit is set, in ascending
// order. It allocates; invariant checks and tests use it, the
// controller's hot path uses HolderMask.
func (m *FullMap) Holders(block int) []int {
	return MaskToList(m.HolderMask(block))
}

// HolderCount returns the number of presence bits set for block.
func (m *FullMap) HolderCount(block int) int {
	return bits.OnesCount64(m.HolderMask(block))
}

// MaskToList expands a holder bitmask into ascending cache indices.
func MaskToList(mask uint64) []int {
	var out []int
	for ; mask != 0; mask &= mask - 1 {
		out = append(out, bits.TrailingZeros64(mask))
	}
	return out
}

// Clear resets block to the Absent equivalent (no holders, unmodified).
func (m *FullMap) Clear(block int) {
	m.check(block, -1)
	m.presence[block] = 0
	m.modified[block] = false
}

// GlobalState derives the two-bit abstraction from the exact map, used by
// the invariant checker to cross-validate the two schemes.
func (m *FullMap) GlobalState(block int) State {
	return Project(m.HolderMask(block), m.modified[block])
}

// Project is the two-bit abstraction of an exact directory entry: what
// the paper's map would read for a block with these holders and this
// modified bit.
func Project(holders uint64, modified bool) State {
	switch {
	case modified:
		return PresentM
	case holders == 0:
		return Absent
	case holders&(holders-1) == 0:
		return Present1
	default:
		return PresentStar
	}
}

package system

import (
	"fmt"
	"slices"

	"twobit/internal/addr"
	"twobit/internal/cache"
)

// copyView is one cache's valid copy of a block, for invariant checks:
// what the checks read of the frame, packed into 16 bytes so the index of
// every copy in the machine stays small. key orders copies by (block,
// cache): block<<8 | cache<<2 | exclusive<<1 | modified (Config.Validate
// holds caches to 64).
type copyView struct {
	key  uint64
	data uint64 // the frame's data version
}

func (cv copyView) block() addr.Block { return addr.Block(cv.key >> 8) }
func (cv copyView) cacheIdx() int     { return int(cv.key >> 2 & 63) }
func (cv copyView) exclusive() bool   { return cv.key&2 != 0 }
func (cv copyView) modified() bool    { return cv.key&1 != 0 }

// copyIndex is every valid frame of every cache as the quiescence sweep
// reads them — views, ordered by (block, cache) — and the radix sort's
// scratch array of the same length. A machine keeps both across runs; a
// Runner lends its own to the machines it pools.
type copyIndex struct {
	views, scratch []copyView
}

// indexCopies fills the machine's copy index and returns it: every valid
// frame of every cache, ordered by block and, within a block, by cache,
// so that each block's copies are the next window of it. The frames go in
// cache by cache, so a stable sort on the block alone gives that order: a
// least-significant-digit radix sort, one byte of the block number per
// pass through the scratch array, skipping the bytes every key shares.
// That is O(frames × bytes per block number), with no comparison sort and
// nothing sized by the address space. The index is sized once, from the
// machine's frame count, the first time a machine or its Runner needs one.
func (m *Machine) indexCopies() []copyView {
	if m.copies.views == nil { // first use: size both arrays for every frame
		frames := 0
		for _, cs := range m.caches {
			frames += len(cs.Store().Frames())
		}
		m.copies = copyIndex{views: make([]copyView, 0, frames), scratch: make([]copyView, frames)}
	}
	idx := m.copies.views[:0]
	for k, cs := range m.caches {
		frames := cs.Store().Frames()
		for i := range frames {
			if frames[i].Valid {
				idx = append(idx, viewOf(k, &frames[i]))
			}
		}
	}
	tmp := slices.Grow(m.copies.scratch[:0], len(idx))[:len(idx)]
	for shift := uint(8); len(idx) > 1 && uint64(m.space.Blocks-1)>>(shift-8) != 0; shift += 8 {
		var at [256]int
		for _, cv := range idx {
			at[cv.key>>shift&255]++
		}
		if at[idx[0].key>>shift&255] == len(idx) {
			continue // every block shares this byte
		}
		sum := 0
		for d, n := range at {
			at[d], sum = sum, sum+n
		}
		for _, cv := range idx {
			d := cv.key >> shift & 255
			tmp[at[d]] = cv
			at[d]++
		}
		idx, tmp = tmp, idx
	}
	m.copies = copyIndex{views: idx, scratch: tmp}
	return idx
}

// viewOf packs cache k's valid frame f.
func viewOf(k int, f *cache.Frame) copyView {
	key := uint64(f.Block)<<8 | uint64(k)<<2
	if f.Exclusive {
		key |= 2
	}
	if f.Modified {
		key |= 1
	}
	return copyView{key: key, data: f.Data}
}

// checkDataInvariants verifies the protocol-independent coherence facts at
// quiescence: at most one modified copy; a modified copy is the only copy
// and holds the latest committed version; with no modified copy, memory
// holds the latest committed version and every clean copy matches memory.
func (m *Machine) checkDataInvariants(b addr.Block, copies []copyView, memVersion uint64) error {
	modified := 0
	var firstMod copyView
	for _, cv := range copies {
		if cv.modified() {
			if modified == 0 {
				firstMod = cv
			}
			modified++
		}
	}
	if modified > 1 {
		return fmt.Errorf("%v: %d modified copies", b, modified)
	}
	if modified == 1 {
		if len(copies) != 1 {
			return fmt.Errorf("%v: modified copy in cache %d coexists with %d other copies",
				b, firstMod.cacheIdx(), len(copies)-1)
		}
		if m.oracle != nil && firstMod.data != m.oracle.Latest(b) {
			return fmt.Errorf("%v: modified copy holds version %d, latest committed is %d",
				b, firstMod.data, m.oracle.Latest(b))
		}
		return nil
	}
	if m.oracle != nil && memVersion != m.oracle.Latest(b) {
		return fmt.Errorf("%v: memory holds version %d, latest committed is %d",
			b, memVersion, m.oracle.Latest(b))
	}
	for _, cv := range copies {
		if cv.data != memVersion {
			return fmt.Errorf("%v: clean copy in cache %d holds version %d, memory holds %d",
				b, cv.cacheIdx(), cv.data, memVersion)
		}
	}
	return nil
}

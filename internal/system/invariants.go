package system

import (
	"cmp"
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

// sweepCopies calls visit for every block of the space in ascending order
// with the block's valid copies in cache order. It indexes, not probes:
// every valid frame of every cache goes into one array — the machine's,
// kept across runs — sorted by (block, cache), and each block's copies are
// then the next window of it. That is O(blocks + frames·log frames) where
// asking every cache about every block was O(blocks × caches × ways).
func (m *Machine) sweepCopies(visit func(b addr.Block, copies []copyView) error) error {
	idx := m.copyIndex[:0]
	for k, cs := range m.caches {
		frames := cs.Store().Frames()
		for i := range frames {
			if frames[i].Valid {
				idx = append(idx, viewOf(k, &frames[i]))
			}
		}
	}
	slices.SortFunc(idx, func(a, b copyView) int { return cmp.Compare(a.key, b.key) })
	m.copyIndex = idx
	i := 0
	for blk := 0; blk < m.space.Blocks; blk++ {
		j := i
		for j < len(idx) && idx[j].block() == addr.Block(blk) {
			j++
		}
		if err := visit(addr.Block(blk), idx[i:j]); err != nil {
			return err
		}
		i = j
	}
	return nil
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

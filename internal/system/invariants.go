package system

import (
	"fmt"

	"twobit/internal/addr"
	"twobit/internal/cache"
	"twobit/internal/core"
	"twobit/internal/directory"
)

// copyView is one cache's valid copy of a block, for invariant checks.
type copyView struct {
	cacheIdx int
	frame    cache.Frame
}

// gatherCopies snapshots every valid copy of block b across the caches
// into the machine's scratch buffer — the checkers call it once per
// block per run, and each caller is done with the previous snapshot
// before asking for the next. Empty results are nil.
func (m *Machine) gatherCopies(b addr.Block) []copyView {
	out := m.copyScratch[:0]
	for k, cs := range m.caches {
		if f := cs.Store().Lookup(b); f != nil {
			out = append(out, copyView{cacheIdx: k, frame: *f})
		}
	}
	m.copyScratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// checkDataInvariants verifies the protocol-independent coherence facts at
// quiescence: at most one modified copy; a modified copy is the only copy
// and holds the latest committed version; with no modified copy, memory
// holds the latest committed version and every clean copy matches memory.
func (m *Machine) checkDataInvariants(b addr.Block, copies []copyView, memVersion uint64) error {
	modified := 0
	var firstMod copyView
	for _, cv := range copies {
		if cv.frame.Modified {
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
				b, firstMod.cacheIdx, len(copies)-1)
		}
		if m.oracle != nil && firstMod.frame.Data != m.oracle.Latest(b) {
			return fmt.Errorf("%v: modified copy holds version %d, latest committed is %d",
				b, firstMod.frame.Data, m.oracle.Latest(b))
		}
		return nil
	}
	if m.oracle != nil && memVersion != m.oracle.Latest(b) {
		return fmt.Errorf("%v: memory holds version %d, latest committed is %d",
			b, memVersion, m.oracle.Latest(b))
	}
	for _, cv := range copies {
		if cv.frame.Data != memVersion {
			return fmt.Errorf("%v: clean copy in cache %d holds version %d, memory holds %d",
				b, cv.cacheIdx, cv.frame.Data, memVersion)
		}
	}
	return nil
}

// checkTwoBitInvariants verifies the two-bit global states against the
// caches' actual contents. Present* may legitimately overcount (it means
// "0 or more copies"); every other state is exact.
func checkTwoBitInvariants(m *Machine, ctrls []*core.Controller) error {
	for blk := 0; blk < m.space.Blocks; blk++ {
		b := addr.Block(blk)
		ctrl := ctrls[b.Module(m.space.Modules)]
		copies := m.gatherCopies(b)
		if err := m.checkDataInvariants(b, copies, ctrl.MemVersion(b)); err != nil {
			return err
		}
		st := ctrl.State(b)
		modified := 0
		for _, cv := range copies {
			if cv.frame.Modified {
				modified++
			}
		}
		switch st {
		case directory.Absent:
			if len(copies) != 0 {
				return fmt.Errorf("%v: state Absent but %d copies exist", b, len(copies))
			}
		case directory.Present1:
			if len(copies) > 1 || modified != 0 {
				return fmt.Errorf("%v: state Present1 but %d copies (%d modified)", b, len(copies), modified)
			}
		case directory.PresentStar:
			if modified != 0 {
				return fmt.Errorf("%v: state Present* but a modified copy exists", b)
			}
		case directory.PresentM:
			if len(copies) != 1 || modified != 1 {
				return fmt.Errorf("%v: state PresentM but %d copies (%d modified)", b, len(copies), modified)
			}
		}
		if modified == 1 && st != directory.PresentM {
			return fmt.Errorf("%v: modified copy exists but state is %v", b, st)
		}
		if len(copies) >= 2 && st != directory.PresentStar {
			return fmt.Errorf("%v: %d copies but state is %v", b, len(copies), st)
		}
	}
	return nil
}

// checkExactInvariants verifies an exact directory — the n+1-bit map or
// the duplicated cache directories — against the caches.
func checkExactInvariants(m *Machine, ctrls []*core.Controller) error {
	for blk := 0; blk < m.space.Blocks; blk++ {
		b := addr.Block(blk)
		ctrl := ctrls[b.Module(m.space.Modules)]
		copies := m.gatherCopies(b)
		if err := m.checkDataInvariants(b, copies, ctrl.MemVersion(b)); err != nil {
			return err
		}
		holders := ctrl.Holders(b)
		holds := func(k int) bool {
			for _, h := range holders {
				if h == k {
					return true
				}
			}
			return false
		}
		// Every copy must be a known holder (exactness of the map). Extra
		// presence bits can only exist when clean ejects are disabled.
		for _, cv := range copies {
			if !holds(cv.cacheIdx) {
				return fmt.Errorf("%v: cache %d holds a copy the map does not record", b, cv.cacheIdx)
			}
		}
		if !m.cfg.DisableCleanEject && len(holders) != len(copies) {
			return fmt.Errorf("%v: map records %d holders but %d copies exist", b, len(holders), len(copies))
		}
		if ctrl.Modified(b) {
			if len(holders) != 1 {
				return fmt.Errorf("%v: m bit set with %d holders", b, len(holders))
			}
			// With the Yen–Fu extension the m bit is pessimistic: the sole
			// holder may hold the block Exclusive (clean). Otherwise the
			// copy must be modified.
			if len(copies) == 1 {
				f := copies[0].frame
				if !f.Modified && !f.Exclusive {
					return fmt.Errorf("%v: m bit set but the copy is plainly clean", b)
				}
			}
		}
	}
	return nil
}

// checkGenericInvariants runs only the protocol-independent checks, using
// memVersion to read back main memory. Used by protocols without a global
// directory (classical, write-once, software).
func checkGenericInvariants(m *Machine, memVersion func(addr.Block) uint64, extra func(b addr.Block, copies []copyView) error) error {
	for blk := 0; blk < m.space.Blocks; blk++ {
		b := addr.Block(blk)
		copies := m.gatherCopies(b)
		if err := m.checkDataInvariants(b, copies, memVersion(b)); err != nil {
			return err
		}
		if extra != nil {
			if err := extra(b, copies); err != nil {
				return err
			}
		}
	}
	return nil
}

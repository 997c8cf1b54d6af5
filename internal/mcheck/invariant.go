package mcheck

import (
	"fmt"

	"twobit/internal/addr"
	"twobit/internal/directory"
	"twobit/internal/msg"
)

// doomed reports whether cache k's copy of b is scheduled for
// destruction by an in-flight controller command: a BROADINV or INV
// still queued toward k, or a write-flavored BROADQUERY/PURGE that will
// make the owner relinquish the block. The coherence invariants exempt
// doomed copies — the two-bit protocol's invalidations are
// fire-and-forget, so a stale copy with its invalidation in flight is
// the designed behavior (§3.2.3), not a defect.
func doomed(v *machine, b addr.Block, k int) bool {
	top := v.top
	for _, m := range v.rm.Pending(top.CtrlNode(0), top.CacheNode(k)) {
		if m.Block != b {
			continue
		}
		if m.Kind == msg.KindBroadInv || m.Kind == msg.KindInv {
			return true
		}
		if (m.Kind == msg.KindBroadQuery || m.Kind == msg.KindPurge) && m.RW == msg.Write {
			return true
		}
	}
	return false
}

// checkCoherence verifies the single-writer / no-stale-reader
// invariants on every state:
//
//	I1 (swmr): per block, at most one live (non-doomed) modified copy,
//	    and while it exists every other copy of the block is doomed.
//	I2/I3 (stale-read): every live copy — modified or clean — holds the
//	    block's current committed version.
func checkCoherence(v *machine) *Violation {
	for b := 0; b < v.cfg.Blocks; b++ {
		blk := addr.Block(b)
		cur := v.currentOf(blk)
		owner := -1    // cache with a live modified copy
		liveClean := 0 // live clean copies
		for k := 0; k < v.cfg.Caches; k++ {
			f := v.agents[k].Store().Lookup(blk)
			if f == nil {
				continue
			}
			if doomed(v, blk, k) {
				continue
			}
			if f.Modified {
				if owner >= 0 {
					return &Violation{Kind: "swmr", Detail: fmt.Sprintf(
						"block %d modified in caches %d and %d simultaneously", b, owner, k)}
				}
				owner = k
				if f.Data != cur {
					return &Violation{Kind: "stale-read", Detail: fmt.Sprintf(
						"block %d modified copy in cache %d holds v%d, current is v%d", b, k, f.Data, cur)}
				}
				continue
			}
			liveClean++
			if f.Data != cur {
				return &Violation{Kind: "stale-read", Detail: fmt.Sprintf(
					"block %d clean copy in cache %d holds v%d, current is v%d (no invalidation in flight)",
					b, k, f.Data, cur)}
			}
		}
		if owner >= 0 && liveClean > 0 {
			return &Violation{Kind: "swmr", Detail: fmt.Sprintf(
				"block %d modified in cache %d while %d live clean copies exist", b, owner, liveClean)}
		}
	}
	return nil
}

// checkDeadlock runs at rest states (no deliverable message): with
// nothing left to deliver the machine must be fully at rest — every
// processor reference completed, every cache agent idle, the controller
// quiescent (no active transaction, no queued command, no stashed put,
// no parked continuation).
func checkDeadlock(v *machine) *Violation {
	for k := 0; k < v.cfg.Caches; k++ {
		if v.rm.Busy(k) {
			return &Violation{Kind: "deadlock", Detail: fmt.Sprintf(
				"processor %d has a reference outstanding but nothing is deliverable", k)}
		}
		if v.agents[k].Snapshot().Busy {
			return &Violation{Kind: "deadlock", Detail: fmt.Sprintf(
				"cache agent %d mid-transaction but nothing is deliverable", k)}
		}
	}
	if !v.ctl.Quiescent() {
		return &Violation{Kind: "deadlock", Detail: "controller not quiescent but nothing is deliverable"}
	}
	for b := 0; b < v.cfg.Blocks; b++ {
		cb := v.ctl.BlockSnapshot(addr.Block(b))
		if cb.Active || cb.Waiting || cb.AwaitingAck || len(cb.Stashed) > 0 || len(cb.Queued) > 0 {
			return &Violation{Kind: "deadlock", Detail: fmt.Sprintf(
				"controller block %d has residual transaction state but nothing is deliverable", b)}
		}
	}
	return nil
}

// checkConformance runs at quiescent rest states — nothing deliverable,
// nothing outstanding — where the directory's compressed bookkeeping
// must agree with ground truth. For the two-bit scheme the agreement is
// exactly as loose as §3.1 allows (Present* may overcount); the exact
// directories (full map, duplication) must be exact.
func checkConformance(v *machine) *Violation {
	for b := 0; b < v.cfg.Blocks; b++ {
		blk := addr.Block(b)
		cb := v.ctl.BlockSnapshot(blk)
		cur := v.currentOf(blk)
		copies, modified := 0, 0
		var holders uint64
		for k := 0; k < v.cfg.Caches; k++ {
			f := v.agents[k].Store().Lookup(blk)
			if f == nil {
				continue
			}
			copies++
			holders |= 1 << uint(k)
			if f.Modified {
				modified++
			}
		}
		bad := func(format string, args ...any) *Violation {
			return &Violation{Kind: "conformance", Detail: fmt.Sprintf(
				"block %d in %v: ", b, cb.State) + fmt.Sprintf(format, args...)}
		}
		if v.cfg.Protocol != TwoBit {
			if cb.Holders != holders {
				return bad("presence bits %b but actual holders %b", cb.Holders, holders)
			}
			if cb.Modified != (modified == 1) || modified > 1 {
				return bad("m-bit %v but %d modified copies", cb.Modified, modified)
			}
			if !cb.Modified && cb.Mem != cur {
				return bad("memory holds v%d, current is v%d", cb.Mem, cur)
			}
			continue
		}
		switch cb.State {
		case directory.Absent:
			if copies != 0 {
				return bad("%d copies cached", copies)
			}
			if cb.Mem != cur {
				return bad("memory holds v%d, current is v%d", cb.Mem, cur)
			}
		case directory.Present1:
			if copies != 1 || modified != 0 {
				return bad("%d copies (%d modified), want exactly one clean", copies, modified)
			}
			if cb.Mem != cur {
				return bad("memory holds v%d, current is v%d", cb.Mem, cur)
			}
		case directory.PresentStar:
			// Present* may overcount (ejected read copies are not
			// tracked), so any copy count — including zero — conforms.
			if modified != 0 {
				return bad("%d modified copies under a read-only state", modified)
			}
			if cb.Mem != cur {
				return bad("memory holds v%d, current is v%d", cb.Mem, cur)
			}
		case directory.PresentM:
			if copies != 1 || modified != 1 {
				return bad("%d copies (%d modified), want exactly one modified", copies, modified)
			}
		}
	}
	return nil
}

// checkState runs every per-state property: coherence always, and the
// deadlock + conformance obligations when the state is at rest.
func checkState(v *machine, rest bool) *Violation {
	if viol := checkCoherence(v); viol != nil {
		return viol
	}
	if !rest {
		return nil
	}
	if viol := checkDeadlock(v); viol != nil {
		return viol
	}
	return checkConformance(v)
}

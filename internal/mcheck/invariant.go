package mcheck

import (
	"fmt"

	"twobit/internal/addr"
	"twobit/internal/msg"
)

// doomed reports whether cache k's copy of b is exempt from the coherence
// invariants because a message in flight to k will destroy or overwrite
// it:
//
//   - a BROADINV or INV, or a write-flavored BROADQUERY/PURGE that will
//     make the owner relinquish the block. The two-bit protocol's
//     invalidations are fire-and-forget, so a stale copy with its
//     invalidation in flight is the designed behavior (§3.2.3), not a
//     defect.
//   - the get that completes k's own outstanding write to b. Classical
//     commits a write-through at memory once every other copy has
//     acknowledged its invalidation, so until that get lands the writer's
//     own clean copy holds the old version — while its processor, blocked
//     on the write, cannot read it.
func doomed(v *machine, b addr.Block, k int) bool {
	ref := v.rm.Ref(k)
	writing := v.rm.Busy(k) && ref.Write && ref.Block == b
	for _, m := range v.rm.Pending(v.top.CtrlNode(0), v.top.CacheNode(k)) {
		if m.Block != b {
			continue
		}
		invalidates := m.Kind == msg.KindBroadInv || m.Kind == msg.KindInv
		takes := (m.Kind == msg.KindBroadQuery || m.Kind == msg.KindPurge) && m.RW == msg.Write
		if invalidates || takes || (m.Kind == msg.KindGet && writing) {
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
			f := v.store(k).Lookup(blk)
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

// checkRest runs at rest states (nothing deliverable): the machine must
// be fully at rest — every processor reference completed, the controller
// quiescent — and then pass the simulator's own quiescence check, the one
// every simulation run ends with: the copies against memory and the
// oracle, and the protocol's directory invariant.
func checkRest(v *machine) *Violation {
	for k := 0; k < v.cfg.Caches; k++ {
		if v.rm.Busy(k) {
			return &Violation{Kind: "deadlock", Detail: fmt.Sprintf(
				"processor %d has a reference outstanding but nothing is deliverable", k)}
		}
	}
	if !v.rm.Quiescent() {
		return &Violation{Kind: "deadlock", Detail: "controller not quiescent but nothing is deliverable"}
	}
	if err := v.rm.CheckInvariants(); err != nil {
		return &Violation{Kind: "conformance", Detail: err.Error()}
	}
	return nil
}

// checkState runs every per-state property: coherence always, and the
// rest-state obligations when nothing is deliverable.
func checkState(v *machine, rest bool) *Violation {
	if viol := checkCoherence(v); viol != nil {
		return viol
	}
	if !rest {
		return nil
	}
	return checkRest(v)
}

// checkOracle reports the first value the oracle flagged on the path to
// the current state: a processor was returned a version it must not see.
func checkOracle(v *machine) *Violation {
	if errs := v.rm.Errs(); len(errs) > 0 {
		return &Violation{Kind: "oracle", Detail: errs[0].Error()}
	}
	return nil
}

package system

import (
	"strings"
	"testing"

	"twobit/internal/addr"
)

// Block is addr.Block, aliased for brevity in the corruption helpers.
type Block = addr.Block

// The invariant checkers are load-bearing: every integration test trusts
// them to catch protocol corruption. These tests corrupt a healthy
// machine by hand and assert each checker actually fires.

func healthyMachine(t *testing.T, p Protocol) *Machine {
	t.Helper()
	cfg := DefaultConfig(p, 4)
	m, err := New(cfg, sharingGen(4, 33))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1500); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCheckerDetectsDoubleModified(t *testing.T) {
	m := healthyMachine(t, TwoBit)
	// Forge a second modified copy of some block another cache holds.
	var victim Block
	found := false
	for b := 0; b < m.space.Blocks && !found; b++ {
		for k := 0; k < 2; k++ {
			if f := m.caches[k].Store().Lookup(Block(b)); f != nil {
				f.Modified = true
				// Plant a duplicate modified copy in the other cache.
				other := m.caches[1-k].Store()
				v := other.Victim(Block(b))
				if v.Valid {
					other.Evict(v)
				}
				other.Fill(v, Block(b), f.Data)
				other.Lookup(Block(b)).Modified = true
				victim = Block(b)
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("no cached block to corrupt")
	}
	err := m.bld.checkInvariants(m)
	if err == nil {
		t.Fatalf("checker missed two modified copies of %v", victim)
	}
	if !strings.Contains(err.Error(), "modified") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCheckerDetectsAbsentWithCopy(t *testing.T) {
	m := healthyMachine(t, TwoBit)
	// Plant a copy of a block whose directory state is Absent.
	tb := m.bld.(*directoryBuilder)
	var target Block = 0
	found := false
	for b := 0; b < m.space.Blocks; b++ {
		blk := Block(b)
		if tb.ctrls[blk.Module(m.space.Modules)].State(blk) == 0 /* Absent */ {
			if m.gatherCopies(blk) == nil {
				target = blk
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("no absent block available")
	}
	store := m.caches[0].Store()
	v := store.Victim(target)
	if v.Valid {
		store.Evict(v)
	}
	memV := tb.ctrls[target.Module(m.space.Modules)].MemVersion(target)
	store.Fill(v, target, memV)
	if err := m.bld.checkInvariants(m); err == nil {
		t.Fatal("checker missed a copy of an Absent block")
	}
}

func TestCheckerDetectsStaleCleanCopy(t *testing.T) {
	m := healthyMachine(t, TwoBit)
	// Find any clean cached copy and corrupt its data version.
	for b := 0; b < m.space.Blocks; b++ {
		for k := range m.caches {
			if f := m.caches[k].Store().Lookup(Block(b)); f != nil && !f.Modified {
				f.Data += 12345
				if err := m.bld.checkInvariants(m); err == nil {
					t.Fatal("checker missed a stale clean copy")
				}
				return
			}
		}
	}
	t.Skip("no clean copy to corrupt")
}

func TestCheckerDetectsFullMapPhantomHolder(t *testing.T) {
	m := healthyMachine(t, FullMap)
	// Plant a copy the exact map does not record.
	fb := m.bld.(*directoryBuilder)
	for b := 0; b < m.space.Blocks; b++ {
		blk := Block(b)
		ctrl := fb.ctrls[blk.Module(m.space.Modules)]
		holders := ctrl.Holders(blk)
		holderSet := map[int]bool{}
		for _, h := range holders {
			holderSet[h] = true
		}
		for k := range m.caches {
			if !holderSet[k] && m.caches[k].Store().Lookup(blk) == nil && !ctrl.Modified(blk) {
				store := m.caches[k].Store()
				v := store.Victim(blk)
				if v.Valid {
					store.Evict(v)
				}
				store.Fill(v, blk, ctrl.MemVersion(blk))
				if err := m.bld.checkInvariants(m); err == nil {
					t.Fatal("full-map checker missed an unrecorded holder")
				}
				return
			}
		}
	}
	t.Skip("no candidate block")
}

package system

import (
	"fmt"
	"slices"
	"testing"

	"twobit/internal/addr"
	"twobit/internal/core"
	"twobit/internal/sim"
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
	err := m.checkInvariants()
	if err == nil {
		t.Fatalf("checker missed two modified copies of %v", victim)
	}
	if want := victim.String() + ": 2 modified copies"; err.Error() != want {
		t.Fatalf("checker said %q, want %q", err, want)
	}
}

func TestCheckerDetectsAbsentWithCopy(t *testing.T) {
	m := healthyMachine(t, TwoBit)
	// Plant a copy of a block whose directory state is Absent.
	var target Block = 0
	found := false
	for b := 0; b < m.space.Blocks; b++ {
		blk := Block(b)
		if m.ctrlFor(blk).(*core.Controller).State(blk) == 0 /* Absent */ {
			if m.probeCopies(blk) == nil {
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
	memV := m.ctrlFor(target).MemVersion(target)
	store.Fill(v, target, memV)
	err := m.checkInvariants()
	if err == nil {
		t.Fatal("checker missed a copy of an Absent block")
	}
	if want := target.String() + ": state Absent but 1 copies exist"; err.Error() != want {
		t.Fatalf("checker said %q, want %q", err, want)
	}
}

func TestCheckerDetectsStaleCleanCopy(t *testing.T) {
	m := healthyMachine(t, TwoBit)
	// Find any clean cached copy and corrupt its data version.
	for b := 0; b < m.space.Blocks; b++ {
		for k := range m.caches {
			if f := m.caches[k].Store().Lookup(Block(b)); f != nil && !f.Modified {
				f.Data += 12345
				err := m.checkInvariants()
				if err == nil {
					t.Fatal("checker missed a stale clean copy")
				}
				want := fmt.Sprintf("%v: clean copy in cache %d holds version %d, memory holds %d", Block(b), k, f.Data, f.Data-12345)
				if err.Error() != want {
					t.Fatalf("checker said %q, want %q", err, want)
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
	for b := 0; b < m.space.Blocks; b++ {
		blk := Block(b)
		ctrl := m.ctrlFor(blk).(*core.Controller)
		holders, modified := ctrl.Entry(blk)
		for k := range m.caches {
			if holders&(1<<uint(k)) == 0 && m.caches[k].Store().Lookup(blk) == nil && !modified {
				store := m.caches[k].Store()
				v := store.Victim(blk)
				if v.Valid {
					store.Evict(v)
				}
				store.Fill(v, blk, ctrl.MemVersion(blk))
				err := m.checkInvariants()
				if err == nil {
					t.Fatal("full-map checker missed an unrecorded holder")
				}
				if want := fmt.Sprintf("%v: cache %d holds a copy the map does not record", blk, k); err.Error() != want {
					t.Fatalf("checker said %q, want %q", err, want)
				}
				return
			}
		}
	}
	t.Skip("no candidate block")
}

// probeCopies is the sweep's retired way of finding block b's copies —
// ask every cache — kept as the oracle for the copy index: same copies,
// same (cache) order, nil when there are none.
func (m *Machine) probeCopies(b addr.Block) []copyView {
	var out []copyView
	for k, cs := range m.caches {
		if f := cs.Store().Lookup(b); f != nil {
			out = append(out, viewOf(k, f))
		}
	}
	return out
}

// TestInvariantIndexMatchesProbe: the sweep visits every block once, in
// order, with the copies that probing every cache gives it, in the same
// order — for all seven protocols, in the middle of a run and at
// quiescence, and again on the next sweep over the reused index.
func TestInvariantIndexMatchesProbe(t *testing.T) {
	for name, cfg := range allProtocols() {
		t.Run(name, func(t *testing.T) {
			m, err := New(cfg, sharingGen(cfg.Procs, 33))
			if err != nil {
				t.Fatal(err)
			}
			sweep := func(when string) {
				t.Helper()
				next, total := Block(0), 0
				err := m.sweepCopies(func(b Block, copies []copyView) error {
					if want := m.probeCopies(b); b != next || !slices.Equal(copies, want) {
						t.Fatalf("%s: visit %v is of %v: the index gives %v, probing the caches %v", when, next, b, copies, want)
					}
					next++
					total += len(copies)
					return nil
				})
				if err != nil || int(next) != m.space.Blocks || total == 0 {
					t.Fatalf("%s: visited %d of %d blocks and %d copies, error %v", when, next, m.space.Blocks, total, err)
				}
			}
			for p := 0; p < cfg.Procs; p++ {
				m.issue(p, 1500)
			}
			for piece := 0; piece < 4; piece++ {
				for i := 0; i < 1000 && m.kernel.Step(); i++ {
				}
				sweep(fmt.Sprintf("mid-run, %d events in", m.kernel.Processed()))
			}
			m.kernel.Run()
			sweep("quiescent")
			sweep("quiescent, second sweep")
		})
	}
}

// TestZeroAllocInvariants: the quiescence check of a machine that has
// been checked before — its copy index grown — allocates nothing, under
// every protocol's checker.
func TestZeroAllocInvariants(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for name, cfg := range allProtocols() {
		m, err := New(cfg, sharingGen(cfg.Procs, 33))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(1500); err != nil { // checks once: the index is at its high-water mark
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := m.checkInvariants(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a repeated invariant check allocates %v, want 0", name, allocs)
		}
	}
}

package core_test

import (
	"testing"

	"twobit/internal/addr"
	"twobit/internal/core"
	"twobit/internal/directory"
	"twobit/internal/memory"
	"twobit/internal/network"
	"twobit/internal/proto"
	"twobit/internal/sim"
)

// The exact policies on the shared rig: the n+1-bit full map (with and
// without the Yen–Fu exclusive grant) and Tang's central duplicated
// directories.

// holders and modified read block b's exact directory entry.
func (r *rig) holders(b addr.Block) []int {
	mask, _ := r.ctrl.Entry(b)
	return directory.MaskToList(mask)
}

func (r *rig) modified(b addr.Block) bool {
	_, mod := r.ctrl.Entry(b)
	return mod
}

func TestExactHolderTracking(t *testing.T) {
	r := newRig(t, 4, rigOpt{pol: core.FullMap(false)})
	r.do(t, 0, 5, false)
	r.do(t, 2, 5, false)
	h := r.holders(5)
	if len(h) != 2 || h[0] != 0 || h[1] != 2 {
		t.Fatalf("Holders = %v, want [0 2]", h)
	}
	if r.ctrl.State(5) != directory.PresentStar {
		t.Fatalf("derived state = %v", r.ctrl.State(5))
	}
}

func TestNoBroadcastsEver(t *testing.T) {
	r := newRig(t, 4, rigOpt{pol: core.FullMap(false)})
	r.do(t, 0, 5, false)
	r.do(t, 1, 5, false)
	r.do(t, 2, 5, true)  // directed INVs
	r.do(t, 3, 5, false) // directed PURGE
	r.do(t, 3, 5, true)  // MREQUEST... write hit on unmodified
	s := r.ctrl.CtrlStats()
	if s.Broadcasts.Value() != 0 {
		t.Fatalf("full map broadcast %d times", s.Broadcasts.Value())
	}
	if s.DirectedSends.Value() == 0 {
		t.Fatal("no directed sends recorded")
	}
}

func TestUninvolvedCachesUndisturbed(t *testing.T) {
	r := newRig(t, 8, rigOpt{pol: core.FullMap(false)})
	r.do(t, 0, 5, false)
	r.do(t, 1, 5, true)
	r.do(t, 0, 5, false)
	for k := 2; k < 8; k++ {
		if got := r.agents[k].SideStats().CommandsReceived.Value(); got != 0 {
			t.Fatalf("cache %d received %d commands; full map must send only to holders", k, got)
		}
	}
}

func TestDirectedPurgeOnModified(t *testing.T) {
	r := newRig(t, 4, rigOpt{pol: core.FullMap(false)})
	wv := r.do(t, 0, 3, true)
	got := r.do(t, 1, 3, false)
	if got != wv {
		t.Fatalf("reader got v%d, want v%d", got, wv)
	}
	if r.modified(3) {
		t.Fatal("m bit still set after read purge")
	}
	h := r.holders(3)
	if len(h) != 2 {
		t.Fatalf("Holders = %v, want previous owner + reader", h)
	}
	if r.ctrl.MemVersion(3) != wv {
		t.Fatal("write-back missing")
	}
}

func TestEjectClearsPresence(t *testing.T) {
	r := newRig(t, 2, rigOpt{pol: core.FullMap(false)})
	r.do(t, 0, 1, false)
	r.do(t, 0, 17, false)
	r.do(t, 0, 33, false) // evict block 1
	if n := len(r.holders(1)); n != 0 {
		t.Fatalf("holder count = %d after clean ejection", n)
	}
}

func TestMRequestGrantRequiresPresence(t *testing.T) {
	r := newRig(t, 3, rigOpt{pol: core.FullMap(false)})
	r.do(t, 0, 8, false)
	r.do(t, 1, 8, false)
	// A stale MREQUEST from a cache whose presence bit is clear is queued
	// and serviced like any other (no deny-on-arrival: the exact map can
	// judge it), then denied — and nobody's copy is disturbed.
	r.staleMRequest(2, 8)
	if s := r.ctrl.CtrlStats(); s.MRequests.Value() != 1 || s.MGrantDenied.Value() != 1 || s.DirectedSends.Value() != 0 {
		t.Fatalf("serviced=%d denied=%d directed=%d, want 1, 1, 0",
			s.MRequests.Value(), s.MGrantDenied.Value(), s.DirectedSends.Value())
	}
	r.do(t, 0, 8, true) // MREQUEST, granted with directed INV to 1
	if !r.modified(8) {
		t.Fatal("m bit not set after granted MREQUEST")
	}
	if r.agents[1].Store().Lookup(8) != nil {
		t.Fatal("other holder survived the directed INV")
	}
}

func TestExclusiveGrantOnColdRead(t *testing.T) {
	r := newRig(t, 4, rigOpt{pol: core.FullMap(true)})
	r.do(t, 0, 6, false)
	f := r.agents[0].Store().Lookup(6)
	if f == nil || !f.Exclusive {
		t.Fatalf("cold read did not grant exclusivity: %+v", f)
	}
	if !r.modified(6) {
		t.Fatal("directory must pessimistically set the m bit for an exclusive grant")
	}
	// A silent write must not contact the controller.
	before := r.ctrl.CtrlStats().MRequests.Value()
	r.do(t, 0, 6, true)
	if r.ctrl.CtrlStats().MRequests.Value() != before {
		t.Fatal("exclusive write sent an MREQUEST")
	}
	if f := r.agents[0].Store().Lookup(6); !f.Modified {
		t.Fatal("silent upgrade did not set the modified bit")
	}
}

func TestExclusiveOwnerAnswersPurgeWhenClean(t *testing.T) {
	r := newRig(t, 2, rigOpt{pol: core.FullMap(true)})
	r.do(t, 0, 6, false) // exclusive, never written
	got := r.do(t, 1, 6, false)
	if got != 0 {
		t.Fatalf("reader got v%d, want the initial v0", got)
	}
	f0 := r.agents[0].Store().Lookup(6)
	if f0 == nil || f0.Exclusive || f0.Modified {
		t.Fatalf("previous exclusive owner frame = %+v, want plain clean copy", f0)
	}
	if r.modified(6) {
		t.Fatal("m bit still set after the purge round")
	}
}

func TestExclusiveSecondReaderNotExclusive(t *testing.T) {
	r := newRig(t, 2, rigOpt{pol: core.FullMap(true)})
	r.do(t, 0, 6, false)
	r.do(t, 1, 6, false)
	if f := r.agents[1].Store().Lookup(6); f == nil || f.Exclusive {
		t.Fatalf("second reader's frame = %+v, must not be exclusive", f)
	}
}

func TestExclusiveCleanEjectClearsPessimisticBit(t *testing.T) {
	r := newRig(t, 2, rigOpt{pol: core.FullMap(true)})
	r.do(t, 0, 1, false) // exclusive
	r.do(t, 0, 17, false)
	r.do(t, 0, 33, false) // clean eject of the exclusive copy
	if r.modified(1) {
		t.Fatal("pessimistic m bit dangles after the exclusive copy was ejected")
	}
	// The block must be usable afterwards.
	if got := r.do(t, 1, 1, false); got != 0 {
		t.Fatalf("subsequent read got v%d", got)
	}
}

func TestDuplicateTagsTrackFillsAndEvictions(t *testing.T) {
	r := newRig(t, 3, rigOpt{pol: core.Duplication()})
	r.do(t, 0, 5, false)
	r.do(t, 1, 5, false)
	h := r.holders(5)
	if len(h) != 2 || h[0] != 0 || h[1] != 1 {
		t.Fatalf("Holders = %v", h)
	}
	// Evict from cache 0 (blocks 21, 37 conflict with 5 mod 8 = 5).
	r.do(t, 0, 21, false)
	r.do(t, 0, 37, false)
	h = r.holders(5)
	if len(h) != 1 || h[0] != 1 {
		t.Fatalf("Holders after eviction = %v", h)
	}
}

func TestCentralControllerDirectsCommands(t *testing.T) {
	r := newRig(t, 8, rigOpt{pol: core.Duplication()})
	r.do(t, 0, 5, false)
	r.do(t, 1, 5, false)
	r.do(t, 2, 5, true) // directed INVs to 0 and 1 only
	for k := 3; k < 8; k++ {
		if got := r.agents[k].SideStats().CommandsReceived.Value(); got != 0 {
			t.Fatalf("cache %d disturbed (%d commands)", k, got)
		}
	}
	if r.ctrl.CtrlStats().Broadcasts.Value() != 0 {
		t.Fatal("central duplicate directory broadcast something")
	}
	if r.ctrl.State(5) != directory.PresentM {
		t.Fatalf("state = %v", r.ctrl.State(5))
	}
	if h := r.holders(5); !r.modified(5) || len(h) != 1 || h[0] != 2 {
		t.Fatalf("modified = %v by %v, want cache 2 alone", r.modified(5), h)
	}
}

func TestModifiedRetrievalThroughCenter(t *testing.T) {
	r := newRig(t, 2, rigOpt{pol: core.Duplication()})
	wv := r.do(t, 0, 3, true)
	got := r.do(t, 1, 3, false)
	if got != wv {
		t.Fatalf("reader got v%d, want v%d", got, wv)
	}
	if r.ctrl.MemVersion(3) != wv {
		t.Fatal("write-back missing")
	}
	if r.modified(3) {
		t.Fatal("modified tracking not cleaned after read purge")
	}
}

// TestSingleCommandQueueing: the central controller services one command
// at a time, so concurrent misses to distinct blocks still queue — the
// bottleneck the paper criticizes.
func TestSingleCommandQueueing(t *testing.T) {
	r := newRig(t, 4, rigOpt{pol: core.Duplication()})
	var done [4]bool
	for k := 0; k < 4; k++ {
		k := k
		r.agents[k].Access(addr.Ref{Block: addr.Block(10 + k)}, 0, func(uint64) { done[k] = true })
	}
	r.kernel.Run()
	for k, d := range done {
		if !d {
			t.Fatalf("reference %d incomplete", k)
		}
	}
	if r.ctrl.CtrlStats().MaxQueue == 0 {
		t.Fatal("no queueing observed at the central controller under concurrent misses")
	}
}

func TestSearchTimeGrowsWithCaches(t *testing.T) {
	// Same single miss on 4 vs 64 caches: the bigger machine's controller
	// takes longer because all duplicated directories must be searched.
	elapsed := func(n int) sim.Time {
		r := newRig(t, n, rigOpt{pol: core.Duplication()})
		r.do(t, 0, 1, false)
		return r.kernel.Now()
	}
	if e4, e64 := elapsed(4), elapsed(64); e64 <= e4 {
		t.Fatalf("directory search time did not grow: %d vs %d cycles", e4, e64)
	}
}

func TestRequiresSingleModule(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("multi-module duplication accepted")
		}
	}()
	var k sim.Kernel
	net := network.NewCrossbar(&k, 1)
	space := addr.Space{Blocks: 8, Modules: 2}
	core.New(proto.CtrlConfig{Topo: proto.Topology{Caches: 2, Modules: 2}, Space: space,
		Lat: proto.DefaultLatencies()}, core.Duplication(), &k, net,
		memory.NewModule(space, 0, 1))
}

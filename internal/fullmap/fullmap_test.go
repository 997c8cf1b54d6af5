package fullmap

import (
	"testing"

	"twobit/internal/addr"
	"twobit/internal/cache"
	"twobit/internal/core"
	"twobit/internal/directory"
	"twobit/internal/memory"
	"twobit/internal/msg"
	"twobit/internal/network"
	"twobit/internal/proto"
	"twobit/internal/sim"
)

type rig struct {
	kernel *sim.Kernel
	net    *network.Crossbar
	ctrl   *core.Controller
	agents []*proto.CacheAgent
	nextV  uint64
}

// holders and modified read block b's exact directory entry.
func (r *rig) holders(b addr.Block) []int {
	mask, _ := r.ctrl.Entry(b)
	return directory.MaskToList(mask)
}

func (r *rig) modified(b addr.Block) bool {
	_, mod := r.ctrl.Entry(b)
	return mod
}

func newRig(t *testing.T, n int, exclusive bool) *rig {
	t.Helper()
	r := &rig{kernel: &sim.Kernel{}}
	r.net = network.NewCrossbar(r.kernel, 1)
	topo := proto.Topology{Caches: n, Modules: 1}
	space := addr.Space{Blocks: 64, Modules: 1}
	lat := proto.Latencies{CacheHit: 1, Memory: 5, CtrlService: 1}
	mem := memory.NewModule(space, 0, lat.Memory)
	r.ctrl = core.New(proto.CtrlConfig{
		Module: 0, Topo: topo, Space: space, Lat: lat, Mode: proto.PerBlock,
	}, core.FullMap(exclusive), r.kernel, r.net, mem)
	for k := 0; k < n; k++ {
		store := cache.New(cache.Config{Sets: 8, Assoc: 2})
		r.agents = append(r.agents, proto.NewCacheAgent(proto.AgentConfig{
			Index: k, Topo: topo, Lat: lat, ExclusiveGrants: exclusive,
		}, r.kernel, r.net, store))
	}
	return r
}

func (r *rig) do(t *testing.T, k int, block addr.Block, write bool) uint64 {
	t.Helper()
	var version uint64
	if write {
		r.nextV++
		version = r.nextV
	}
	var got uint64
	completed := false
	r.agents[k].Access(addr.Ref{Block: block, Write: write}, version, func(v uint64) {
		got = v
		completed = true
	})
	r.kernel.Run()
	if !completed {
		t.Fatalf("cache %d: reference to %v did not complete", k, block)
	}
	return got
}

func TestExactHolderTracking(t *testing.T) {
	r := newRig(t, 4, false)
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
	r := newRig(t, 4, false)
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
	r := newRig(t, 8, false)
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
	r := newRig(t, 4, false)
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
	r := newRig(t, 2, false)
	r.do(t, 0, 1, false)
	r.do(t, 0, 17, false)
	r.do(t, 0, 33, false) // evict block 1
	if n := len(r.holders(1)); n != 0 {
		t.Fatalf("holder count = %d after clean ejection", n)
	}
}

func TestMRequestGrantRequiresPresence(t *testing.T) {
	r := newRig(t, 3, false)
	r.do(t, 0, 8, false)
	r.do(t, 1, 8, false)
	// A stale MREQUEST from a cache whose presence bit is clear is queued
	// and serviced like any other (no deny-on-arrival: the exact map can
	// judge it), then denied — and nobody's copy is disturbed.
	r.net.Send(2, 3, msg.Message{Kind: msg.KindMRequest, Block: 8, Cache: 2})
	r.kernel.Run()
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
	r := newRig(t, 4, true)
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
	r := newRig(t, 2, true)
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
	r := newRig(t, 2, true)
	r.do(t, 0, 6, false)
	r.do(t, 1, 6, false)
	if f := r.agents[1].Store().Lookup(6); f == nil || f.Exclusive {
		t.Fatalf("second reader's frame = %+v, must not be exclusive", f)
	}
}

func TestExclusiveCleanEjectClearsPessimisticBit(t *testing.T) {
	r := newRig(t, 2, true)
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

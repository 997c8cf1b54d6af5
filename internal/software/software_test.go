package software

import (
	"testing"

	"twobit/internal/addr"
	"twobit/internal/cache"
	"twobit/internal/memory"
	"twobit/internal/network"
	"twobit/internal/proto"
	"twobit/internal/sim"
)

type rig struct {
	kernel *sim.Kernel
	ctrl   *Controller
	agents []*Agent
	nextV  uint64
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	r := &rig{kernel: &sim.Kernel{}}
	net := network.NewCrossbar(r.kernel, 1)
	topo := proto.Topology{Caches: n, Modules: 1}
	space := addr.Space{Blocks: 64, Modules: 1}
	lat := proto.Latencies{CacheHit: 1, Memory: 5, CtrlService: 1}
	mem := memory.NewModule(space, 0, lat.Memory)
	r.ctrl = New(proto.CtrlConfig{Module: 0, Topo: topo, Space: space, Lat: lat}, r.kernel, net, mem)
	for k := 0; k < n; k++ {
		store := cache.New(cache.Config{Sets: 8, Assoc: 2})
		r.agents = append(r.agents, NewAgent(proto.AgentConfig{
			Index: k, Topo: topo, Lat: lat,
		}, r.kernel, net, store))
	}
	return r
}

func (r *rig) do(t *testing.T, k int, block addr.Block, write, shared bool) uint64 {
	t.Helper()
	var version uint64
	if write {
		r.nextV++
		version = r.nextV
	}
	var got uint64
	completed := false
	r.agents[k].Access(addr.Ref{Block: block, Write: write, Shared: shared}, version, func(v uint64) {
		got = v
		completed = true
	})
	r.kernel.Run()
	if !completed {
		t.Fatalf("cache %d: reference did not complete", k)
	}
	return got
}

func TestSharedBlocksNeverCached(t *testing.T) {
	r := newRig(t, 2)
	r.do(t, 0, 3, false, true)
	r.do(t, 0, 3, true, true)
	r.do(t, 0, 3, false, true)
	if r.agents[0].Store().Count() != 0 {
		t.Fatal("a public block entered the cache")
	}
}

func TestSharedWritesAlwaysVisible(t *testing.T) {
	r := newRig(t, 3)
	v := r.do(t, 0, 3, true, true)
	if got := r.do(t, 1, 3, false, true); got != v {
		t.Fatalf("proc 1 read v%d, want v%d", got, v)
	}
	if got := r.do(t, 2, 3, false, true); got != v {
		t.Fatalf("proc 2 read v%d, want v%d", got, v)
	}
	if r.ctrl.MemVersion(3) != v {
		t.Fatal("memory stale")
	}
}

func TestPrivateBlocksCachedWriteBack(t *testing.T) {
	r := newRig(t, 1)
	r.do(t, 0, 20, false, false) // fill
	v := r.do(t, 0, 20, true, false)
	f := r.agents[0].Store().Lookup(20)
	if f == nil || !f.Modified || f.Data != v {
		t.Fatalf("private frame = %+v", f)
	}
	// Memory not yet updated (write-back policy).
	if r.ctrl.MemVersion(20) == v {
		t.Fatal("private write went through to memory prematurely")
	}
	// Evict (blocks 36 and 52 conflict with 20 mod 8 = 4).
	r.do(t, 0, 36, false, false)
	r.do(t, 0, 52, false, false)
	if r.ctrl.MemVersion(20) != v {
		t.Fatal("write-back on eviction missing")
	}
}

func TestPrivateWriteMissFillsThenModifies(t *testing.T) {
	r := newRig(t, 1)
	v := r.do(t, 0, 20, true, false)
	f := r.agents[0].Store().Lookup(20)
	if f == nil || !f.Modified || f.Data != v {
		t.Fatalf("frame after write miss = %+v", f)
	}
}

func TestNoCoherenceTrafficAtAll(t *testing.T) {
	r := newRig(t, 4)
	for i := 0; i < 50; i++ {
		r.do(t, i%4, 3, i%2 == 0, true)
		r.do(t, i%4, addr.Block(16+(i%4)*8), i%3 == 0, false)
	}
	for k := 0; k < 4; k++ {
		if got := r.agents[k].SideStats().CommandsReceived.Value(); got != 0 {
			t.Fatalf("cache %d received %d coherence commands; the static scheme has none", k, got)
		}
	}
}

func TestUncachedOpsCounted(t *testing.T) {
	r := newRig(t, 1)
	r.do(t, 0, 3, false, true)
	r.do(t, 0, 3, true, true)
	s := r.ctrl.CtrlStats()
	if s.ReadMisses.Value() != 1 || s.WriteMisses.Value() != 1 {
		t.Fatalf("uncached ops counted %d/%d", s.ReadMisses.Value(), s.WriteMisses.Value())
	}
}

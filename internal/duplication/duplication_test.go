package duplication

import (
	"testing"

	"twobit/internal/addr"
	"twobit/internal/cache"
	"twobit/internal/core"
	"twobit/internal/directory"
	"twobit/internal/memory"
	"twobit/internal/network"
	"twobit/internal/proto"
	"twobit/internal/sim"
)

type rig struct {
	kernel *sim.Kernel
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

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	r := &rig{kernel: &sim.Kernel{}}
	net := network.NewCrossbar(r.kernel, 1)
	topo := proto.Topology{Caches: n, Modules: 1}
	space := addr.Space{Blocks: 64, Modules: 1}
	lat := proto.Latencies{CacheHit: 1, Memory: 5, CtrlService: 1}
	mem := memory.NewModule(space, 0, lat.Memory)
	r.ctrl = core.New(proto.CtrlConfig{Topo: topo, Space: space, Lat: lat}, core.Duplication(), r.kernel, net, mem)
	for k := 0; k < n; k++ {
		store := cache.New(cache.Config{Sets: 8, Assoc: 2})
		r.agents = append(r.agents, proto.NewCacheAgent(proto.AgentConfig{
			Index: k, Topo: topo, Lat: lat,
		}, r.kernel, net, store))
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

func TestDuplicateTagsTrackFillsAndEvictions(t *testing.T) {
	r := newRig(t, 3)
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
	r := newRig(t, 8)
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
	r := newRig(t, 2)
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
	r := newRig(t, 4)
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
		r := newRig(t, n)
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

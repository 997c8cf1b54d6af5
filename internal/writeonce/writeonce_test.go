package writeonce

import (
	"testing"

	"twobit/internal/addr"
	"twobit/internal/cache"
	"twobit/internal/network"
	"twobit/internal/proto"
	"twobit/internal/sim"
)

type rig struct {
	kernel *sim.Kernel
	sys    *System
	agents []*Agent
	nextV  uint64
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	r := &rig{kernel: &sim.Kernel{}}
	bus := network.NewBus(r.kernel, 4, 1)
	topo := proto.Topology{Caches: n, Modules: 1}
	space := addr.Space{Blocks: 64, Modules: 1}
	lat := proto.Latencies{CacheHit: 1, Memory: 5, CtrlService: 1}
	r.sys = NewSystem(proto.CtrlConfig{Topo: topo, Space: space, Lat: lat}, r.kernel, bus)
	for k := 0; k < n; k++ {
		store := cache.New(cache.Config{Sets: 8, Assoc: 2})
		r.agents = append(r.agents, NewAgent(r.sys, proto.AgentConfig{Index: k, Topo: topo, Lat: lat}, store))
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

// frameState classifies a frame in Goodman's terms.
func frameState(f *cache.Frame) string {
	switch {
	case f == nil:
		return "Invalid"
	case f.Modified:
		return "Dirty"
	case f.Exclusive:
		return "Reserved"
	default:
		return "Valid"
	}
}

func TestReadMissFillsValid(t *testing.T) {
	r := newRig(t, 2)
	if got := r.do(t, 0, 3, false); got != 0 {
		t.Fatalf("cold read got v%d", got)
	}
	if st := frameState(r.agents[0].Store().Lookup(3)); st != "Valid" {
		t.Fatalf("state = %s, want Valid", st)
	}
}

func TestFirstWriteReservesAndWritesThrough(t *testing.T) {
	r := newRig(t, 3)
	r.do(t, 0, 3, false)
	r.do(t, 1, 3, false) // two Valid copies
	v := r.do(t, 0, 3, true)
	if st := frameState(r.agents[0].Store().Lookup(3)); st != "Reserved" {
		t.Fatalf("writer state = %s, want Reserved", st)
	}
	if r.agents[1].Store().Lookup(3) != nil {
		t.Fatal("other copy survived the write-once transaction")
	}
	if r.sys.MemVersion(3) != v {
		t.Fatal("write-once did not write through to memory")
	}
}

func TestSecondWriteGoesDirtySilently(t *testing.T) {
	r := newRig(t, 2)
	r.do(t, 0, 3, false)
	v1 := r.do(t, 0, 3, true) // Reserved
	before := r.sys.bus.Stats().Messages.Value()
	v2 := r.do(t, 0, 3, true) // Reserved → Dirty: no bus traffic
	if r.sys.bus.Stats().Messages.Value() != before {
		t.Fatal("Reserved→Dirty upgrade used the bus")
	}
	if st := frameState(r.agents[0].Store().Lookup(3)); st != "Dirty" {
		t.Fatalf("state = %s, want Dirty", st)
	}
	if r.sys.MemVersion(3) != v1 {
		t.Fatalf("memory should still hold the written-through v%d", v1)
	}
	_ = v2
}

func TestDirtyOwnerSuppliesReader(t *testing.T) {
	r := newRig(t, 2)
	r.do(t, 0, 3, false)
	r.do(t, 0, 3, true)      // Reserved
	v := r.do(t, 0, 3, true) // Dirty
	got := r.do(t, 1, 3, false)
	if got != v {
		t.Fatalf("reader got v%d, want the dirty v%d", got, v)
	}
	if st := frameState(r.agents[0].Store().Lookup(3)); st != "Valid" {
		t.Fatalf("previous owner = %s, want Valid after supplying", st)
	}
	if r.sys.MemVersion(3) != v {
		t.Fatal("memory not updated when the dirty owner supplied")
	}
}

func TestReservedOwnerDowngradesOnObservedRead(t *testing.T) {
	r := newRig(t, 2)
	r.do(t, 0, 3, false)
	r.do(t, 0, 3, true) // Reserved
	r.do(t, 1, 3, false)
	if st := frameState(r.agents[0].Store().Lookup(3)); st != "Valid" {
		t.Fatalf("owner = %s after observed read, want Valid", st)
	}
}

func TestWriteMissTakesOwnership(t *testing.T) {
	r := newRig(t, 3)
	r.do(t, 0, 3, false)
	r.do(t, 0, 3, true) // Reserved
	v0 := r.do(t, 0, 3, true)
	v1 := r.do(t, 1, 3, true) // write miss: dirty data written back, all others invalid
	if r.agents[0].Store().Lookup(3) != nil {
		t.Fatal("previous owner survived a write miss")
	}
	if st := frameState(r.agents[1].Store().Lookup(3)); st != "Dirty" {
		t.Fatalf("new owner = %s, want Dirty", st)
	}
	if r.sys.MemVersion(3) != v0 {
		t.Fatalf("displaced dirty data not written back: mem=v%d want v%d", r.sys.MemVersion(3), v0)
	}
	_ = v1
}

func TestDirtyEvictionFlushes(t *testing.T) {
	r := newRig(t, 1)
	r.do(t, 0, 3, true) // write miss → Dirty
	v := r.nextV
	r.do(t, 0, 19, false) // conflict set (mod 8 = 3)
	r.do(t, 0, 35, false) // evicts block 3 → flush
	if r.sys.MemVersion(3) != v {
		t.Fatalf("flush missing: mem=v%d want v%d", r.sys.MemVersion(3), v)
	}
}

func TestSnoopsCounted(t *testing.T) {
	r := newRig(t, 4)
	r.do(t, 0, 3, false) // one bus read: 3 other caches snoop
	total := uint64(0)
	for k := 1; k < 4; k++ {
		total += r.agents[k].SideStats().CommandsReceived.Value()
	}
	if total != 3 {
		t.Fatalf("snoops = %d, want 3 (every other cache watches the bus)", total)
	}
}

package core_test

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

// rig is a minimal machine: n cache agents, one controller, a
// unit-latency crossbar, optionally one fake DMA device.
type rig struct {
	kernel *sim.Kernel
	net    *network.Crossbar
	topo   proto.Topology
	ctrl   *core.Controller
	agents []*proto.CacheAgent
	dma    *fakeDMA
	nextV  uint64
	reset  func() // restores every component in place, as a pooled machine does
}

// rigOpt varies the rig; the zero value is the two-bit policy in front of
// 8-set 2-way caches.
type rigOpt struct {
	pol   core.Policy
	tb    int  // translation-buffer entries
	assoc int  // cache associativity, default 2
	dma   bool // attach a fake DMA device
	agent func(*proto.AgentConfig)
}

// fakeDMA is a device node that records the controller's replies.
type fakeDMA struct {
	got []msg.Message
}

func (f *fakeDMA) Deliver(src network.NodeID, m msg.Message) {
	if m.Kind == msg.KindGet {
		f.got = append(f.got, m)
	}
}

func newRig(t *testing.T, n int, opt rigOpt) *rig {
	t.Helper()
	r := &rig{kernel: &sim.Kernel{}, topo: proto.Topology{Caches: n, Modules: 1}}
	r.net = network.NewCrossbar(r.kernel, 1)
	if opt.dma {
		r.topo.DMA = 1
	}
	if opt.assoc == 0 {
		opt.assoc = 2
	}
	space := addr.Space{Blocks: 64, Modules: 1}
	lat := proto.Latencies{CacheHit: 1, Memory: 5, CtrlService: 1}
	ccfg := proto.CtrlConfig{
		Module: 0, Topo: r.topo, Space: space, Lat: lat, Mode: proto.PerBlock,
		TranslationBufferSize: opt.tb,
	}
	mem := memory.NewModule(space, 0, lat.Memory)
	r.ctrl = core.New(ccfg, opt.pol, r.kernel, r.net, mem)
	geometry := cache.Config{Sets: 8, Assoc: opt.assoc}
	acfgs := make([]proto.AgentConfig, n)
	for k := range acfgs {
		acfgs[k] = proto.AgentConfig{Index: k, Topo: r.topo, Lat: lat, ExclusiveGrants: opt.pol.Exclusive}
		if opt.agent != nil {
			opt.agent(&acfgs[k])
		}
		r.agents = append(r.agents, proto.NewCacheAgent(acfgs[k], r.kernel, r.net, cache.New(geometry)))
	}
	r.reset = func() {
		r.kernel.Reset()
		r.net.Reset(1, 0, 0)
		r.ctrl.Reset(ccfg)
		for k, a := range r.agents {
			a.Store().Reset(geometry)
			a.Reset(acfgs[k])
		}
		r.nextV = 0
	}
	if opt.dma {
		r.dma = &fakeDMA{}
		r.net.Attach(r.topo.DMANode(0), r.dma)
	}
	return r
}

// do issues one reference on cache k and runs the machine to completion,
// returning the observed version.
func (r *rig) do(t *testing.T, k int, block addr.Block, write bool) uint64 {
	t.Helper()
	var got uint64
	completed := false
	r.access(k, block, write, func(v uint64) {
		got = v
		completed = true
	})
	r.kernel.Run()
	if !completed {
		t.Fatalf("cache %d: reference to %v did not complete", k, block)
	}
	return got
}

// start issues a reference without draining the kernel, for race setups.
func (r *rig) start(k int, block addr.Block, write bool, done *bool) {
	r.access(k, block, write, func(uint64) { *done = true })
}

func (r *rig) access(k int, block addr.Block, write bool, done func(uint64)) {
	var version uint64
	if write {
		r.nextV++
		version = r.nextV
	}
	r.agents[k].Access(addr.Ref{Block: block, Write: write}, version, done)
}

// dmaOp issues one uncached I/O operation from the fake device, runs the
// machine to completion and returns the data the device was answered with.
func (r *rig) dmaOp(t *testing.T, block addr.Block, write bool, version uint64) uint64 {
	t.Helper()
	kind := msg.KindUncachedRead
	if write {
		kind = msg.KindUncachedWrite
	}
	before := len(r.dma.got)
	r.net.Send(r.topo.DMANode(0), r.topo.CtrlNode(0), msg.Message{
		Kind: kind, Block: block, Cache: -1, Data: version,
	})
	r.kernel.Run()
	if len(r.dma.got) != before+1 {
		t.Fatalf("DMA op got %d replies, want 1", len(r.dma.got)-before)
	}
	return r.dma.got[len(r.dma.got)-1].Data
}

func (r *rig) state(b addr.Block) directory.State { return r.ctrl.State(b) }

func TestReadMissAbsentToPresent1(t *testing.T) {
	r := newRig(t, 4, rigOpt{})
	if got := r.do(t, 0, 7, false); got != 0 {
		t.Fatalf("initial read observed v%d, want v0", got)
	}
	if st := r.state(7); st != directory.Present1 {
		t.Fatalf("state = %v, want Present1", st)
	}
	if r.ctrl.CtrlStats().Broadcasts.Value() != 0 {
		t.Fatal("read miss on Absent broadcast something")
	}
}

func TestSecondReaderToPresentStar(t *testing.T) {
	r := newRig(t, 4, rigOpt{})
	r.do(t, 0, 7, false)
	r.do(t, 1, 7, false)
	if st := r.state(7); st != directory.PresentStar {
		t.Fatalf("state = %v, want Present*", st)
	}
	if r.ctrl.CtrlStats().Broadcasts.Value() != 0 {
		t.Fatal("read sharing broadcast something")
	}
}

func TestWriteMissAbsent(t *testing.T) {
	r := newRig(t, 4, rigOpt{})
	v := r.do(t, 2, 9, true)
	if st := r.state(9); st != directory.PresentM {
		t.Fatalf("state = %v, want PresentM", st)
	}
	f := r.agents[2].Store().Lookup(9)
	if f == nil || !f.Modified || f.Data != v {
		t.Fatalf("writer's frame = %+v", f)
	}
	if r.ctrl.CtrlStats().Broadcasts.Value() != 0 {
		t.Fatal("write miss on Absent broadcast something")
	}
}

func TestWriteMissOnSharedBroadcastsInvalidation(t *testing.T) {
	r := newRig(t, 4, rigOpt{})
	r.do(t, 0, 5, false)
	r.do(t, 1, 5, false)
	r.do(t, 2, 5, true) // write miss on Present*
	if st := r.state(5); st != directory.PresentM {
		t.Fatalf("state = %v, want PresentM", st)
	}
	if r.agents[0].Store().Lookup(5) != nil || r.agents[1].Store().Lookup(5) != nil {
		t.Fatal("reader copies survived the BROADINV")
	}
	if r.ctrl.CtrlStats().Broadcasts.Value() != 1 {
		t.Fatalf("broadcasts = %d, want 1", r.ctrl.CtrlStats().Broadcasts.Value())
	}
	// Cache 3 held nothing: its received command was pure overhead.
	if r.agents[3].SideStats().UselessCommands.Value() != 1 {
		t.Fatalf("cache 3 useless commands = %d, want 1",
			r.agents[3].SideStats().UselessCommands.Value())
	}
}

func TestReadMissOnModifiedQueriesOwner(t *testing.T) {
	r := newRig(t, 4, rigOpt{})
	wv := r.do(t, 0, 3, true) // owner
	got := r.do(t, 1, 3, false)
	if got != wv {
		t.Fatalf("reader observed v%d, want v%d", got, wv)
	}
	if st := r.state(3); st != directory.PresentStar {
		t.Fatalf("state = %v, want Present* (owner keeps a clean copy)", st)
	}
	owner := r.agents[0].Store().Lookup(3)
	if owner == nil || owner.Modified {
		t.Fatalf("owner frame after read query = %+v, want clean copy", owner)
	}
	if r.ctrl.MemVersion(3) != wv {
		t.Fatal("write-back to memory missing")
	}
	if r.agents[0].SideStats().QueriesAnswered.Value() != 1 {
		t.Fatal("owner did not answer the BROADQUERY")
	}
}

func TestWriteMissOnModifiedInvalidatesOwner(t *testing.T) {
	r := newRig(t, 4, rigOpt{})
	wv1 := r.do(t, 0, 3, true)
	wv2 := r.do(t, 1, 3, true)
	if wv2 <= wv1 {
		t.Fatal("version counter broken")
	}
	if st := r.state(3); st != directory.PresentM {
		t.Fatalf("state = %v, want PresentM", st)
	}
	if r.agents[0].Store().Lookup(3) != nil {
		t.Fatal("previous owner kept its copy after a write query")
	}
	if r.ctrl.MemVersion(3) != wv1 {
		t.Fatalf("memory = v%d, want the displaced owner's v%d", r.ctrl.MemVersion(3), wv1)
	}
}

func TestWriteHitPresent1GrantsWithoutBroadcast(t *testing.T) {
	r := newRig(t, 4, rigOpt{})
	r.do(t, 0, 4, false) // Present1
	r.do(t, 0, 4, true)  // write hit on unmodified sole copy
	if st := r.state(4); st != directory.PresentM {
		t.Fatalf("state = %v, want PresentM", st)
	}
	s := r.ctrl.CtrlStats()
	if s.MRequests.Value() != 1 || s.Broadcasts.Value() != 0 {
		t.Fatalf("mrequests=%d broadcasts=%d, want 1 and 0 (this justifies keeping Present1)",
			s.MRequests.Value(), s.Broadcasts.Value())
	}
}

func TestWriteHitPresentStarBroadcasts(t *testing.T) {
	r := newRig(t, 4, rigOpt{})
	r.do(t, 0, 4, false)
	r.do(t, 1, 4, false)
	r.do(t, 0, 4, true) // MREQUEST on Present*
	if st := r.state(4); st != directory.PresentM {
		t.Fatalf("state = %v, want PresentM", st)
	}
	if r.agents[1].Store().Lookup(4) != nil {
		t.Fatal("other reader's copy survived")
	}
	if r.agents[0].Store().Lookup(4) == nil {
		t.Fatal("the writer's own copy was invalidated — the parameter k failed")
	}
	if r.ctrl.CtrlStats().Broadcasts.Value() != 1 {
		t.Fatalf("broadcasts = %d, want 1", r.ctrl.CtrlStats().Broadcasts.Value())
	}
}

func TestCleanEjectPresent1ToAbsent(t *testing.T) {
	// With an exact §4.4 translation-buffer entry the controller can
	// validate the ejector against the true owner set, so the last clean
	// ejection reclaims Absent exactly as §3.2.1 Case 2 intends.
	r := newRig(t, 2, rigOpt{tb: 8})
	r.do(t, 0, 1, false)
	// Block 17 maps to the same set (8 sets, assoc 2): 1%8 == 17%8... 17%8=1 ✓.
	r.do(t, 0, 17, false)
	r.do(t, 0, 33, false) // evicts block 1 (LRU)
	if st := r.state(1); st != directory.Absent {
		t.Fatalf("state = %v, want Absent after clean ejection", st)
	}
}

func TestCleanEjectPresent1WithoutTBOvercounts(t *testing.T) {
	// Without exact owner knowledge a read EJECT cannot be validated: a
	// stale one — overtaken in the network, arriving after its copy was
	// invalidated and the block re-fetched by another cache — is
	// indistinguishable from a fresh one, and dropping to Absent on it
	// strands the new holder's live copy untracked (found by
	// internal/mcheck). Present1 therefore degrades to the safe Present*
	// overcount.
	r := newRig(t, 2, rigOpt{})
	r.do(t, 0, 1, false)
	r.do(t, 0, 17, false)
	r.do(t, 0, 33, false) // evicts block 1 (LRU)
	if st := r.state(1); st != directory.PresentStar {
		t.Fatalf("state = %v, want Present* after unvalidated clean ejection", st)
	}
}

func TestCleanEjectPresentStarStaysStar(t *testing.T) {
	r := newRig(t, 2, rigOpt{})
	r.do(t, 0, 1, false)
	r.do(t, 1, 1, false) // Present*
	r.do(t, 0, 17, false)
	r.do(t, 0, 33, false) // cache 0 evicts block 1
	if st := r.state(1); st != directory.PresentStar {
		t.Fatalf("state = %v, want Present* (the anomaly: 0 or more copies)", st)
	}
}

func TestDirtyEjectWritesBack(t *testing.T) {
	r := newRig(t, 2, rigOpt{})
	wv := r.do(t, 0, 1, true)
	r.do(t, 0, 17, false)
	r.do(t, 0, 33, false) // evicts modified block 1
	if st := r.state(1); st != directory.Absent {
		t.Fatalf("state = %v, want Absent", st)
	}
	if r.ctrl.MemVersion(1) != wv {
		t.Fatalf("memory = v%d, want v%d", r.ctrl.MemVersion(1), wv)
	}
}

// staleMRequest delivers an MREQUEST(k,b) that cache k's agent never
// sent — the shape of one overtaken by an invalidation of k's copy. The
// agent refuses any grant of it with MACK(false).
func (r *rig) staleMRequest(k int, b addr.Block) {
	r.net.Send(r.topo.CacheNode(k), r.topo.CtrlNode(0), msg.Message{
		Kind: msg.KindMRequest, Block: b, Cache: k,
	})
	r.kernel.Run()
}

// TestMRequestDeniedOnArrivalWhenModified: a stale MREQUEST reaching the
// controller when the block is PresentM (or Absent) must be denied
// immediately, without ever being queued or serviced.
func TestMRequestDeniedOnArrivalWhenModified(t *testing.T) {
	r := newRig(t, 3, rigOpt{})
	r.do(t, 0, 8, true) // PresentM, owner 0
	r.staleMRequest(1, 8)
	r.staleMRequest(1, 9) // Absent
	s := r.ctrl.CtrlStats()
	if s.MGrantDenied.Value() != 2 || s.MRequests.Value() != 0 {
		t.Fatalf("denied=%d serviced=%d, want both denied on arrival, none serviced",
			s.MGrantDenied.Value(), s.MRequests.Value())
	}
	if r.state(8) != directory.PresentM || r.state(9) != directory.Absent {
		t.Fatalf("states = %v, %v; a denial must not move them", r.state(8), r.state(9))
	}
}

// TestMAckDenialFromPresent1KeepsPresent1: the Present1 grant sends no
// invalidation, so a refused grant proves the tracked copy is another
// cache's and still live — Present1 must stand.
func TestMAckDenialFromPresent1KeepsPresent1(t *testing.T) {
	r := newRig(t, 2, rigOpt{})
	r.do(t, 0, 8, false) // Present1: cache 0's copy
	r.staleMRequest(1, 8)
	if st := r.state(8); st != directory.Present1 {
		t.Fatalf("state = %v, want Present1 to stand", st)
	}
	if r.agents[0].Store().Lookup(8) == nil {
		t.Fatal("the live copy was invalidated by a Present1 grant")
	}
	if s := r.ctrl.CtrlStats(); s.MGrantDenied.Value() != 1 || s.Broadcasts.Value() != 0 || !r.ctrl.Quiescent() {
		t.Fatalf("denied=%d broadcasts=%d quiescent=%v", s.MGrantDenied.Value(), s.Broadcasts.Value(), r.ctrl.Quiescent())
	}
}

// TestMAckDenialFromPresentStarGoesAbsent: the Present* grant broadcast
// BROADINV first, so after a refused grant no copy survives anywhere.
func TestMAckDenialFromPresentStarGoesAbsent(t *testing.T) {
	r := newRig(t, 3, rigOpt{})
	r.do(t, 0, 8, false)
	r.do(t, 1, 8, false) // Present*
	r.staleMRequest(2, 8)
	if st := r.state(8); st != directory.Absent {
		t.Fatalf("state = %v, want Absent", st)
	}
	if r.agents[0].Store().Lookup(8) != nil || r.agents[1].Store().Lookup(8) != nil {
		t.Fatal("a copy survived the grant's BROADINV")
	}
	if s := r.ctrl.CtrlStats(); s.MGrantDenied.Value() != 1 || !r.ctrl.Quiescent() {
		t.Fatalf("denied=%d quiescent=%v", s.MGrantDenied.Value(), r.ctrl.Quiescent())
	}
}

func TestTranslationBufferDirectsQueries(t *testing.T) {
	r := newRig(t, 4, rigOpt{tb: 16})
	r.do(t, 0, 3, true)  // PresentM, TB records owner {0}
	r.do(t, 1, 3, false) // read miss: TB hit → directed PURGE, no broadcast
	s := r.ctrl.CtrlStats()
	if s.Broadcasts.Value() != 0 {
		t.Fatalf("broadcasts = %d, want 0 (TB should direct the query)", s.Broadcasts.Value())
	}
	if s.DirectedSends.Value() == 0 {
		t.Fatal("no directed sends recorded")
	}
	if s.TBHits.Value() == 0 {
		t.Fatal("no TB hits recorded")
	}
	// Caches 2 and 3 must have received nothing at all.
	if r.agents[2].SideStats().CommandsReceived.Value() != 0 ||
		r.agents[3].SideStats().CommandsReceived.Value() != 0 {
		t.Fatal("uninvolved caches received commands despite the TB")
	}
}

func TestTranslationBufferDirectsInvalidations(t *testing.T) {
	r := newRig(t, 4, rigOpt{tb: 16})
	r.do(t, 0, 3, false) // TB records {0}
	r.do(t, 1, 3, false) // TB adds 1 → {0,1}
	r.do(t, 2, 3, true)  // write miss: directed INVs to 0 and 1 only
	if r.ctrl.CtrlStats().Broadcasts.Value() != 0 {
		t.Fatal("write miss broadcast despite TB knowledge")
	}
	if r.agents[0].Store().Lookup(3) != nil || r.agents[1].Store().Lookup(3) != nil {
		t.Fatal("directed invalidations missed a holder")
	}
	if r.agents[3].SideStats().CommandsReceived.Value() != 0 {
		t.Fatal("cache 3 received a command it did not need")
	}
}

func TestTranslationBufferEmptyOwnerSetSkipsInvalidation(t *testing.T) {
	r := newRig(t, 4, rigOpt{tb: 16})
	r.do(t, 0, 3, false) // Present1, TB {0}
	// Evict cleanly: blocks 19 and 35 conflict with 3 (mod 8 = 3).
	r.do(t, 0, 19, false)
	r.do(t, 0, 35, false) // TB removes owner 0 → {}
	// State returned to Absent via the clean eject, so this goes through
	// the Absent write-miss path anyway; force the Present* path instead:
	r.do(t, 1, 3, false)  // Present1 {1}
	r.do(t, 2, 3, false)  // Present* {1,2}
	r.do(t, 1, 51, false) // 51 mod 8 = 3: evict 3 from cache 1 → TB {2}
	r.do(t, 1, 3, true)   // write miss on Present*: directed INV only to 2
	if r.agents[3].SideStats().CommandsReceived.Value() != 0 {
		t.Fatal("cache 3 disturbed despite exact TB knowledge")
	}
	if r.ctrl.CtrlStats().Broadcasts.Value() != 0 {
		t.Fatal("broadcast happened despite exact TB knowledge")
	}
}

func TestDisableCleanEject(t *testing.T) {
	r := newRig(t, 2, rigOpt{agent: func(a *proto.AgentConfig) { a.DisableCleanEject = true }})
	r.do(t, 0, 1, false)
	r.do(t, 0, 17, false)
	r.do(t, 0, 33, false) // silently drops block 1
	if st := r.state(1); st != directory.Present1 {
		t.Fatalf("state = %v; without clean ejects Present1 must persist", st)
	}
	if r.ctrl.CtrlStats().Ejects.Value() != 0 {
		t.Fatal("EJECT sent despite DisableCleanEject")
	}
}

func TestStateQueriesForInvariants(t *testing.T) {
	r := newRig(t, 2, rigOpt{})
	r.do(t, 0, 2, true)
	if r.ctrl.TranslationBuffer() != nil {
		t.Fatal("TB present although disabled")
	}
	if !r.ctrl.Quiescent() {
		t.Fatal("controller busy after drain")
	}
}

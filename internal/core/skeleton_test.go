package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"twobit/internal/addr"
	"twobit/internal/core"
	"twobit/internal/directory"
	"twobit/internal/msg"
	"twobit/internal/proto"
	"twobit/internal/rng"
	"twobit/internal/sim"
)

// The transaction skeleton — serializer, early-put stash, the EJECT ×
// query race, §3.2.5 queue deletion, uncached I/O, Reset — is the same
// engine under every directory policy, so each of its tests runs over
// this table. What differs per policy (who is told, what the directory
// then records) is asserted through the two-bit projection every policy
// shares; policy-specific behaviour is tested next to the policy.
var policies = []struct {
	name string
	opt  rigOpt
}{
	{"two-bit", rigOpt{}},
	{"two-bit+tb", rigOpt{tb: 16}},
	{"full-map", rigOpt{pol: core.FullMap(false)}},
	{"full-map+E", rigOpt{pol: core.FullMap(true)}},
	{"duplication", rigOpt{pol: core.Duplication()}},
}

// eachPolicy runs fn on a fresh n-cache rig per policy; vary adjusts the
// table's options first (direct-mapped caches, a DMA device).
func eachPolicy(t *testing.T, n int, vary func(*rigOpt), fn func(t *testing.T, r *rig)) {
	for _, p := range policies {
		opt := p.opt
		if vary != nil {
			vary(&opt)
		}
		t.Run(p.name, func(t *testing.T) { fn(t, newRig(t, n, opt)) })
	}
}

func directMapped(o *rigOpt) { o.assoc = 1 }
func withDMA(o *rigOpt)      { o.dma = true }

// TestRacingMRequests reproduces the §3.2.5 example: caches i and j hold
// copies of a; both issue STOREs "at the same time". The first MREQUEST
// is granted; its invalidation deletes the other from the queue, and its
// sender converts the invalidation into MGRANTED(·,false), retrying as a
// write miss.
func TestRacingMRequests(t *testing.T) {
	eachPolicy(t, 2, nil, func(t *testing.T, r *rig) {
		r.do(t, 0, 8, false)
		r.do(t, 1, 8, false) // both hold copies
		var done0, done1 bool
		r.start(0, 8, true, &done0)
		r.start(1, 8, true, &done1)
		r.kernel.Run()
		if !done0 || !done1 {
			t.Fatalf("stores did not both complete: %v %v", done0, done1)
		}
		if st := r.state(8); st != directory.PresentM {
			t.Fatalf("state = %v, want PresentM", st)
		}
		copies := 0
		for k := 0; k < 2; k++ {
			if f := r.agents[k].Store().Lookup(8); f != nil {
				copies++
				if !f.Modified {
					t.Fatalf("surviving copy in cache %d is clean", k)
				}
			}
		}
		if copies != 1 {
			t.Fatalf("%d copies survive, want exactly 1", copies)
		}
		if n := r.ctrl.CtrlStats().DeletedMRequests.Value(); n != 1 {
			t.Fatalf("deleted MREQUESTs = %d, want the loser's 1", n)
		}
		if n := r.agents[1].SideStats().MRequestsConverted.Value(); n != 1 {
			t.Fatalf("loser converted %d MREQUESTs on the invalidation, want 1", n)
		}
		if !r.ctrl.Quiescent() {
			t.Fatal("controller left non-quiescent")
		}
	})
}

// TestEjectRacesBroadQuery: the owner evicts its modified block while
// another cache read-misses it. Whichever way the eviction's put and the
// read's query cross, the controller must take the put as the query
// answer and delete the queued EJECT("write"), whose write-back it has
// just performed.
func TestEjectRacesBroadQuery(t *testing.T) {
	check := func(t *testing.T, r *rig, wv uint64, doneEvict, doneRead bool) {
		t.Helper()
		if !doneEvict || !doneRead {
			t.Fatalf("references incomplete: evict=%v read=%v", doneEvict, doneRead)
		}
		if f := r.agents[1].Store().Lookup(1); f == nil || f.Data != wv {
			t.Fatalf("reader's copy = %+v, want the modified v%d", f, wv)
		}
		if r.ctrl.MemVersion(1) != wv {
			t.Fatal("modified data never written back")
		}
		if n := r.ctrl.CtrlStats().Ejects.Value(); n != 0 {
			t.Fatalf("%d EJECTs serviced; the racing one must be deleted from the queue", n)
		}
		if st := r.state(1); st != directory.Present1 && st != directory.PresentStar {
			t.Fatalf("state = %v, want a clean-shared state", st)
		}
		// Exact bookkeeping must hold: the evicted owner is no holder.
		mask, _ := r.ctrl.Entry(1)
		for _, h := range directory.MaskToList(mask) {
			if r.agents[h].Store().Lookup(1) == nil {
				t.Fatalf("directory records cache %d as holder; its cache disagrees", h)
			}
		}
		if snap := r.ctrl.BlockSnapshot(1); len(snap.Stashed) != 0 || snap.Active || !r.ctrl.Quiescent() {
			t.Fatalf("controller left residue: %+v", snap)
		}
	}
	t.Run("put-stashed-before-query", func(t *testing.T) {
		eachPolicy(t, 2, directMapped, func(t *testing.T, r *rig) {
			wv := r.do(t, 0, 1, true) // cache 0 owns block 1 modified
			var doneEvict, doneRead bool
			// The read arrives first and starts its transaction; the
			// eviction's EJECT queues behind it and its put is stashed
			// before the transaction gets to ask anybody.
			r.start(1, 1, false, &doneRead)
			r.start(0, 17, false, &doneEvict) // 17 conflicts with 1: evicts it
			r.kernel.Run()
			check(t, r, wv, doneEvict, doneRead)
			if s := r.ctrl.CtrlStats(); s.Broadcasts.Value()+s.DirectedSends.Value() != 0 {
				t.Fatal("a query was sent although the data was already in hand")
			}
		})
	})
	t.Run("put-answers-parked-query", func(t *testing.T) {
		eachPolicy(t, 2, directMapped, func(t *testing.T, r *rig) {
			wv := r.do(t, 0, 1, true)
			var doneEvict, doneRead bool
			r.start(1, 1, false, &doneRead)
			for !r.ctrl.BlockSnapshot(1).Waiting {
				if !r.kernel.Step() {
					t.Fatal("read miss never parked on its query")
				}
			}
			// The query is in flight; the owner evicts before it lands.
			r.start(0, 17, false, &doneEvict)
			r.kernel.Run()
			check(t, r, wv, doneEvict, doneRead)
			if r.agents[0].SideStats().QueriesAnswered.Value() != 0 {
				t.Fatal("the owner answered the query; the eviction should have beaten it")
			}
		})
	})
}

// TestEarlyPutStashedThenConsumed: an EJECT("write") and its put travel
// together, so the put reaches the controller while the EJECT is still in
// its service time. It must be stashed, then consumed by that EJECT.
func TestEarlyPutStashedThenConsumed(t *testing.T) {
	eachPolicy(t, 2, directMapped, func(t *testing.T, r *rig) {
		wv := r.do(t, 0, 1, true)
		var done bool
		r.start(0, 17, false, &done) // evicts modified block 1
		stashed := false
		for r.kernel.Step() {
			if s := r.ctrl.BlockSnapshot(1).Stashed; len(s) > 0 {
				if len(s) != 1 || s[0] != (core.StashedPut{Cache: 0, Data: wv}) {
					t.Fatalf("stash = %+v, want cache 0's v%d", s, wv)
				}
				stashed = true
			}
		}
		if !stashed {
			t.Fatal("the early put was never stashed")
		}
		if !done || r.ctrl.MemVersion(1) != wv || r.state(1) != directory.Absent {
			t.Fatalf("done=%v memory=v%d state=%v, want the write-back and Absent",
				done, r.ctrl.MemVersion(1), r.state(1))
		}
		if snap := r.ctrl.BlockSnapshot(1); len(snap.Stashed) != 0 || !r.ctrl.Quiescent() {
			t.Fatalf("controller left residue: %+v", snap)
		}
	})
}

// TestStashedPutIsNotQuiescent: a put that arrives with no transaction to
// take it is stashed, and a controller holding one is not at rest — the
// simulator's end-of-run check and the model checker's deadlock check
// share this one definition.
func TestStashedPutIsNotQuiescent(t *testing.T) {
	eachPolicy(t, 2, nil, func(t *testing.T, r *rig) {
		r.net.Send(r.topo.CacheNode(0), r.topo.CtrlNode(0), msg.Message{
			Kind: msg.KindPut, Block: 1, Cache: 0, Data: 7,
		})
		r.kernel.Run()
		if len(r.ctrl.BlockSnapshot(1).Stashed) != 1 {
			t.Fatal("the early put was not stashed")
		}
		if r.ctrl.Quiescent() {
			t.Fatal("controller holding a stashed put reports quiescent")
		}
	})
}

func TestDMAReadDrainsModifiedOwner(t *testing.T) {
	eachPolicy(t, 2, withDMA, func(t *testing.T, r *rig) {
		wv := r.do(t, 0, 3, true) // cache 0 owns block 3 modified
		if got := r.dmaOp(t, 3, false, 0); got != wv {
			t.Fatalf("DMA read observed v%d, want the modified v%d", got, wv)
		}
		// Owner keeps a clean copy; state collapses to Present1.
		f := r.agents[0].Store().Lookup(3)
		if f == nil || f.Modified {
			t.Fatalf("owner frame after DMA read = %+v, want clean copy", f)
		}
		if st := r.state(3); st != directory.Present1 {
			t.Fatalf("state = %v, want Present1", st)
		}
		if r.ctrl.MemVersion(3) != wv {
			t.Fatal("write-back missing")
		}
	})
}

func TestDMAWriteInvalidatesAllCopies(t *testing.T) {
	eachPolicy(t, 3, withDMA, func(t *testing.T, r *rig) {
		r.do(t, 0, 3, false)
		r.do(t, 1, 3, false) // two clean copies
		r.dmaOp(t, 3, true, 777)
		if r.agents[0].Store().Lookup(3) != nil || r.agents[1].Store().Lookup(3) != nil {
			t.Fatal("cached copies survived a DMA write")
		}
		if st := r.state(3); st != directory.Absent {
			t.Fatalf("state = %v, want Absent", st)
		}
		if r.ctrl.MemVersion(3) != 777 {
			t.Fatalf("memory = v%d, want the device's 777", r.ctrl.MemVersion(3))
		}
		// A subsequent processor read must observe the device's data.
		if got := r.do(t, 2, 3, false); got != 777 {
			t.Fatalf("processor read v%d after DMA write, want 777", got)
		}
	})
}

func TestDMAWriteDrainsAndDiscardsModifiedData(t *testing.T) {
	eachPolicy(t, 2, withDMA, func(t *testing.T, r *rig) {
		r.do(t, 0, 3, true) // modified owner
		r.dmaOp(t, 3, true, 888)
		if r.agents[0].Store().Lookup(3) != nil {
			t.Fatal("modified owner survived a DMA write")
		}
		if r.ctrl.MemVersion(3) != 888 {
			t.Fatalf("memory = v%d, want 888 (device data overwrites the drained copy)", r.ctrl.MemVersion(3))
		}
		if st := r.state(3); st != directory.Absent || !r.ctrl.Quiescent() {
			t.Fatalf("state = %v quiescent = %v, want Absent and quiescent", st, r.ctrl.Quiescent())
		}
	})
}

func TestDMAReadOfAbsentBlockServedFromMemory(t *testing.T) {
	eachPolicy(t, 2, withDMA, func(t *testing.T, r *rig) {
		if got := r.dmaOp(t, 9, false, 0); got != 0 {
			t.Fatalf("cold DMA read = v%d, want the initial v0", got)
		}
		if st := r.state(9); st != directory.Absent {
			t.Fatalf("DMA read changed the state to %v", st)
		}
	})
}

// TestResetEqualsFresh: a controller Reset between runs must be
// indistinguishable from a newly built one — same statistics, same
// clock, same per-block state after the same script.
func TestResetEqualsFresh(t *testing.T) {
	type outcome struct {
		stats     proto.CtrlStats
		now       int64
		processed uint64
		blocks    []core.BlockSnapshot
	}
	script := func(t *testing.T, r *rig) outcome {
		r.do(t, 0, 1, true)
		r.do(t, 1, 1, false)
		r.do(t, 1, 1, true)
		r.do(t, 0, 17, true) // conflicts with 1 in cache 0 (already invalid there)
		r.do(t, 0, 33, false)
		var d0, d1 bool
		r.start(1, 33, true, &d0)
		r.start(0, 33, true, &d1)
		r.kernel.Run()
		if !d0 || !d1 {
			t.Fatal("racing stores incomplete")
		}
		o := outcome{stats: *r.ctrl.CtrlStats(), now: int64(r.kernel.Now()), processed: r.kernel.Processed()}
		for _, b := range []addr.Block{1, 17, 33} {
			o.blocks = append(o.blocks, r.ctrl.BlockSnapshot(b))
		}
		return o
	}
	eachPolicy(t, 2, directMapped, func(t *testing.T, r *rig) {
		fresh := script(t, r)
		r.reset()
		if again := script(t, r); !reflect.DeepEqual(again, fresh) {
			t.Fatalf("run after Reset diverged from a fresh controller:\n reset %+v\n fresh %+v", again, fresh)
		}
	})
}

// chain drives one cache through a seeded stream of references, the
// next issued when the last completes, through a callback bound once.
type chain struct {
	r    *rig
	k    int
	left int
	rnd  *rng.PCG
	next func(uint64)
}

func (c *chain) issue() {
	if c.left == 0 {
		return
	}
	c.left--
	// 24 blocks over 8 direct-mapped frames: most references miss and
	// evict, a third are stores.
	c.r.access(c.k, addr.Block(c.rnd.Intn(24)), c.rnd.Intn(3) == 0, c.next)
}

// TestZeroAllocController: a Reset controller's second miss-heavy run —
// early puts stashed, commands queued behind busy blocks, under every
// policy, so in both serializer modes — allocates nothing: per-block
// records and their slices come back from the pool.
func TestZeroAllocController(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const caches, refs = 4, 600
	eachPolicy(t, caches, directMapped, func(t *testing.T, r *rig) {
		if r.ctrl.TranslationBuffer() != nil {
			t.Skip("the §4.4 translation buffer is a map of allocated entries, a cost of its own")
		}
		chains := make([]*chain, caches)
		for k := range chains {
			c := &chain{r: r, k: k, rnd: rng.New(0, 0)}
			c.next = func(uint64) { c.issue() }
			chains[k] = c
		}
		stashed := false
		pass := func(watch bool) {
			r.reset()
			for k, c := range chains {
				c.rnd.Reseed(21, uint64(k))
				c.left = refs
				c.issue()
			}
			for r.kernel.Step() {
				for b := addr.Block(0); watch && !stashed && b < 24; b++ {
					stashed = len(r.ctrl.BlockSnapshot(b).Stashed) > 0
				}
			}
			for _, c := range chains {
				if c.left != 0 || !r.ctrl.Quiescent() {
					t.Fatalf("cache %d has %d references left, controller quiescent: %v", c.k, c.left, r.ctrl.Quiescent())
				}
			}
		}
		pass(true)
		if s := r.ctrl.CtrlStats(); !stashed || s.MaxQueue == 0 || s.Ejects.Value() == 0 {
			t.Fatalf("warm-up pass stashed a put: %v, queued at most %d commands, serviced %d EJECTs",
				stashed, s.MaxQueue, s.Ejects.Value())
		}
		if allocs := testing.AllocsPerRun(5, func() { pass(false) }); allocs != 0 {
			t.Errorf("a warmed controller allocates %v per %d-reference run, want 0", allocs, caches*refs)
		}
	})
}

// TestForeignBlockIsANamedPanic: a command or a put for a block beyond
// the controller's space names the block and the module, rather than
// running off the per-block table or landing in another block's slot.
func TestForeignBlockIsANamedPanic(t *testing.T) {
	r := newRig(t, 2, rigOpt{})
	for _, m := range []msg.Message{
		{Kind: msg.KindRequest, Block: 64},
		{Kind: msg.KindPut, Block: 1 << 20, Cache: 1},
	} {
		func() {
			defer func() {
				want := fmt.Sprintf("proto: %v is not a block of module 0 in a space of 64 blocks over 1 modules", m.Block)
				if got := recover(); got != want {
					t.Errorf("%v: panic %v, want %q", m, got, want)
				}
			}()
			r.ctrl.Deliver(0, m)
		}()
	}
}

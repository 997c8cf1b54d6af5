package directory

import (
	"testing"
	"testing/quick"

	"twobit/internal/addr"
	"twobit/internal/rng"
)

func TestStateString(t *testing.T) {
	names := map[State]string{
		Absent: "Absent", Present1: "Present1", PresentStar: "Present*", PresentM: "PresentM",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if State(9).String() == "" {
		t.Error("unknown state has empty name")
	}
}

func TestTwoBitMapGetSet(t *testing.T) {
	m := NewTwoBitMap(10)
	for b := 0; b < 10; b++ {
		if m.Get(b) != Absent {
			t.Fatalf("block %d initial state %v", b, m.Get(b))
		}
	}
	m.Set(3, PresentM)
	m.Set(4, Present1)
	m.Set(5, PresentStar)
	if m.Get(3) != PresentM || m.Get(4) != Present1 || m.Get(5) != PresentStar {
		t.Fatal("states not stored independently")
	}
	// Neighbors within the same byte must be untouched.
	if m.Get(2) != Absent || m.Get(6) != Absent {
		t.Fatal("packing disturbed neighbor blocks")
	}
}

func TestTwoBitMapPackingDensity(t *testing.T) {
	m := NewTwoBitMap(1024)
	if m.SizeBytes() != 256 {
		t.Fatalf("1024 blocks use %d bytes, want 256 (2 bits/block)", m.SizeBytes())
	}
	if NewTwoBitMap(5).SizeBytes() != 2 {
		t.Fatal("rounding up to whole bytes failed")
	}
}

func TestTwoBitMapEconomyVsFullMap(t *testing.T) {
	// The paper's §2.4.2 example: 16 processors means 17 bits per block for
	// the full map vs 2 for the two-bit map, independent of n.
	blocks := 4096
	two := NewTwoBitMap(blocks)
	full := NewFullMap(blocks, 16)
	if two.SizeBytes() >= full.SizeBytes() {
		t.Fatalf("two-bit map (%dB) not smaller than full map (%dB)", two.SizeBytes(), full.SizeBytes())
	}
	full64 := NewFullMap(blocks, 64)
	if full64.SizeBytes() <= full.SizeBytes() {
		t.Fatal("full map cost did not grow with n")
	}
	if NewTwoBitMap(blocks).SizeBytes() != two.SizeBytes() {
		t.Fatal("two-bit map cost varies")
	}
}

func TestTwoBitMapBoundsPanic(t *testing.T) {
	m := NewTwoBitMap(4)
	for _, fn := range []func(){
		func() { m.Get(4) },
		func() { m.Get(-1) },
		func() { m.Set(4, Absent) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestPropertyTwoBitMapRandomOps(t *testing.T) {
	r := rng.New(5, 9)
	if err := quick.Check(func(_ uint8) bool {
		m := NewTwoBitMap(64)
		shadow := make([]State, 64)
		for i := 0; i < 500; i++ {
			b := r.Intn(64)
			s := State(r.Intn(4))
			m.Set(b, s)
			shadow[b] = s
		}
		for b := 0; b < 64; b++ {
			if m.Get(b) != shadow[b] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFullMapPresence(t *testing.T) {
	m := NewFullMap(8, 4)
	m.SetPresent(2, 0, true)
	m.SetPresent(2, 3, true)
	if !m.Present(2, 0) || m.Present(2, 1) || !m.Present(2, 3) {
		t.Fatal("presence bits wrong")
	}
	h := m.Holders(2)
	if len(h) != 2 || h[0] != 0 || h[1] != 3 {
		t.Fatalf("Holders = %v", h)
	}
	if m.HolderCount(2) != 2 {
		t.Fatalf("HolderCount = %d", m.HolderCount(2))
	}
	m.SetPresent(2, 0, false)
	if m.Present(2, 0) || m.HolderCount(2) != 1 {
		t.Fatal("clearing presence failed")
	}
}

func TestFullMapModifiedAndClear(t *testing.T) {
	m := NewFullMap(4, 2)
	m.SetPresent(1, 1, true)
	m.SetModified(1, true)
	if !m.Modified(1) {
		t.Fatal("modified bit not set")
	}
	m.Clear(1)
	if m.Modified(1) || m.HolderCount(1) != 0 {
		t.Fatal("Clear incomplete")
	}
}

func TestFullMapGlobalState(t *testing.T) {
	m := NewFullMap(4, 4)
	if m.GlobalState(0) != Absent {
		t.Fatal("empty block not Absent")
	}
	m.SetPresent(0, 1, true)
	if m.GlobalState(0) != Present1 {
		t.Fatal("one holder not Present1")
	}
	m.SetPresent(0, 2, true)
	if m.GlobalState(0) != PresentStar {
		t.Fatal("two holders not Present*")
	}
	m.SetPresent(0, 2, false)
	m.SetModified(0, true)
	if m.GlobalState(0) != PresentM {
		t.Fatal("modified not PresentM")
	}
}

func TestFullMapConstructionLimits(t *testing.T) {
	for _, caches := range []int{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFullMap with %d caches did not panic", caches)
				}
			}()
			NewFullMap(4, caches)
		}()
	}
}

func TestTranslationBufferHitMiss(t *testing.T) {
	tb := NewTranslationBuffer(2)
	if _, ok := tb.Lookup(1); ok {
		t.Fatal("empty buffer hit")
	}
	tb.Record(1, []int{0, 2})
	owners, ok := tb.Lookup(1)
	if !ok || len(owners) != 2 || owners[0] != 0 || owners[1] != 2 {
		t.Fatalf("Lookup = %v, %v", owners, ok)
	}
	if tb.HitRatio() != 0.5 {
		t.Fatalf("HitRatio = %v, want 0.5", tb.HitRatio())
	}
}

func TestTranslationBufferLRUEviction(t *testing.T) {
	tb := NewTranslationBuffer(2)
	tb.Record(1, []int{0})
	tb.Record(2, []int{1})
	tb.Lookup(1) // refresh 1; 2 becomes LRU
	tb.Record(3, []int{2})
	if _, ok := tb.Lookup(2); ok {
		t.Fatal("LRU entry 2 survived eviction")
	}
	if _, ok := tb.Lookup(1); !ok {
		t.Fatal("refreshed entry 1 was evicted")
	}
	if tb.Stats().Evictions.Value() != 1 {
		t.Fatalf("evictions = %d", tb.Stats().Evictions.Value())
	}
}

func TestTranslationBufferOwnerMaintenance(t *testing.T) {
	tb := NewTranslationBuffer(4)
	tb.Record(7, []int{1})
	tb.AddOwner(7, 3)
	owners, _ := tb.Lookup(7)
	if len(owners) != 2 || owners[1] != 3 {
		t.Fatalf("owners after AddOwner = %v", owners)
	}
	tb.RemoveOwner(7, 1)
	owners, _ = tb.Lookup(7)
	if len(owners) != 1 || owners[0] != 3 {
		t.Fatalf("owners after RemoveOwner = %v", owners)
	}
	tb.Drop(7)
	if _, ok := tb.Lookup(7); ok {
		t.Fatal("entry survived Drop")
	}
	// Mutations of absent entries are no-ops.
	tb.AddOwner(99, 1)
	tb.RemoveOwner(99, 1)
	tb.Drop(99)
}

func TestTranslationBufferZeroCapacity(t *testing.T) {
	tb := NewTranslationBuffer(0)
	tb.Record(1, []int{0})
	if tb.Len() != 0 {
		t.Fatal("zero-capacity buffer stored an entry")
	}
	if _, ok := tb.Lookup(1); ok {
		t.Fatal("zero-capacity buffer hit")
	}
}

func TestTranslationBufferEmptyOwnerSetIsInformative(t *testing.T) {
	tb := NewTranslationBuffer(2)
	tb.Record(5, nil)
	owners, ok := tb.Lookup(5)
	if !ok || len(owners) != 0 {
		t.Fatalf("empty-owner entry: owners=%v ok=%v", owners, ok)
	}
}

func TestPropertyTranslationBufferNeverExceedsCapacity(t *testing.T) {
	r := rng.New(31, 2)
	tb := NewTranslationBuffer(8)
	for i := 0; i < 10000; i++ {
		switch r.Intn(3) {
		case 0:
			tb.Record(rngBlock(r), []int{r.Intn(16)})
		case 1:
			tb.Lookup(rngBlock(r))
		case 2:
			tb.Drop(rngBlock(r))
		}
		if tb.Len() > 8 {
			t.Fatalf("buffer grew to %d entries", tb.Len())
		}
	}
}

func rngBlock(r *rng.PCG) addr.Block { return addr.Block(r.Intn(64)) }

func TestDupTagStore(t *testing.T) {
	d := NewDupTagStore(3)
	if d.Caches() != 3 {
		t.Fatalf("Caches = %d", d.Caches())
	}
	state := func() State { return Project(d.HolderMask(5), d.Modified(5)) }
	d.SetPresent(5, 0, true)
	d.SetPresent(5, 2, true)
	h := d.Holders(5)
	if len(h) != 2 || h[0] != 0 || h[1] != 2 {
		t.Fatalf("Holders = %v", h)
	}
	if state() != PresentStar {
		t.Fatalf("state = %v", state())
	}
	d.SetPresent(5, 0, false)
	if state() != Present1 {
		t.Fatalf("state after evict = %v", state())
	}
	d.SetModified(5, true)
	if !d.Modified(5) || state() != PresentM {
		t.Fatalf("modified tracking wrong: modified=%v state=%v", d.Modified(5), state())
	}
	d.SetPresent(5, 2, true) // re-noting a held tag must keep its modified bit
	if !d.Modified(5) {
		t.Fatal("SetPresent on a held tag cleared its modified bit")
	}
	d.SetModified(5, false)
	if d.Modified(5) {
		t.Fatal("SetModified(false) did not clear")
	}
	d.SetPresent(5, 2, false)
	if state() != Absent {
		t.Fatalf("state after all evicted = %v", state())
	}
	d.SetPresent(5, 1, true)
	d.Clear(5)
	if d.HolderMask(5) != 0 {
		t.Fatal("Clear left a tag behind")
	}
}

func TestDupTagEvictClearsModified(t *testing.T) {
	d := NewDupTagStore(2)
	d.SetPresent(9, 1, true)
	d.SetModified(9, true)
	d.SetPresent(9, 1, false)
	if d.Modified(9) {
		t.Fatal("eviction of modified owner did not clear the modified bit")
	}
}

// TestDupTagSearchMemoStaysCurrent drives random updates across several
// blocks and checks every answer against a memo-free shadow of the
// per-cache tag sets: the remembered search must never go stale, whichever
// block the previous operation touched.
func TestDupTagSearchMemoStaysCurrent(t *testing.T) {
	const caches, blocks = 3, 4
	r := rng.New(11, 3)
	d := NewDupTagStore(caches)
	var shadow [caches][blocks]struct{ held, modified bool }
	for i := 0; i < 5000; i++ {
		b, c := r.Intn(blocks), r.Intn(caches)
		switch op := r.Intn(41); {
		case op < 15:
			d.SetPresent(b, c, true)
			shadow[c][b].held = true
		case op < 25:
			d.SetPresent(b, c, false)
			shadow[c][b] = struct{ held, modified bool }{}
		case op < 35:
			mod := r.Bool(0.5)
			d.SetModified(b, mod)
			for k := range shadow {
				shadow[k][b].modified = shadow[k][b].held && mod
			}
		case op < 40:
			d.Clear(b)
			for k := range shadow {
				shadow[k][b] = struct{ held, modified bool }{}
			}
		default: // rarely, so long update histories build up between resets
			d.Reset()
			shadow = [caches][blocks]struct{ held, modified bool }{}
		}
		b = r.Intn(blocks)
		var mask uint64
		modified := false
		for k := range shadow {
			if shadow[k][b].held {
				mask |= 1 << uint(k)
			}
			modified = modified || shadow[k][b].modified
		}
		if got := d.HolderMask(b); got != mask || d.Modified(b) != modified {
			t.Fatalf("op %d: block %d reads holders %b modified %v, want %b %v", i, b, got, d.Modified(b), mask, modified)
		}
	}
}

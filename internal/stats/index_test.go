package stats

import (
	"fmt"
	"math/bits"
	"testing"
)

// check verifies every structural invariant of the index: the table maps
// exactly the live keys to their slots and each is reachable from its
// home, the bucket list is strictly increasing with consistent back
// links, each bucket's bitset holds exactly the slots with its count,
// and live plus free buckets account for the whole arena.
func (x *Index[V]) check() error {
	live := 0
	for i, e := range x.table {
		if e.slot == 0 {
			continue
		}
		live++
		s := int(e.slot) - 1
		if s >= x.Len() || x.slots[s].key != e.key {
			return fmt.Errorf("table[%d] = key %#x → slot %d, which holds another key", i, e.key, s)
		}
	}
	if live != x.Len() {
		return fmt.Errorf("table holds %d keys, index %d slots", live, x.Len())
	}
	for s := range x.slots {
		if got := x.Find(x.slots[s].key); got != s {
			return fmt.Errorf("Find(%#x) = %d, want slot %d", x.slots[s].key, got, s)
		}
	}
	sized, buckets, prev := 0, 0, int32(none)
	for b := x.head; b != none; prev, b = b, x.buckets[b].next {
		bk := x.buckets[b]
		if bk.prev != prev {
			return fmt.Errorf("bucket %d: prev %d, want %d", b, bk.prev, prev)
		}
		if prev != none && x.buckets[prev].count >= bk.count {
			return fmt.Errorf("bucket %d: count %d after %d", b, bk.count, x.buckets[prev].count)
		}
		n := 0
		for w, v := range x.bits[int(b)*x.words : int(b+1)*x.words] {
			n += bits.OnesCount64(v)
			for ; v != 0; v &= v - 1 {
				s := w*64 + bits.TrailingZeros64(v)
				if s >= x.Len() || x.slots[s].bucket != b || x.slots[s].count != bk.count {
					return fmt.Errorf("bucket %d (count %d) holds slot %d, which is elsewhere", b, bk.count, s)
				}
			}
		}
		if n == 0 || n != int(bk.size) {
			return fmt.Errorf("bucket %d: size %d, %d bits set", b, bk.size, n)
		}
		sized += n
		buckets++
	}
	if sized != x.Len() {
		return fmt.Errorf("buckets hold %d slots, index %d", sized, x.Len())
	}
	for b := x.free; b != none; b = x.buckets[b].next {
		buckets++
	}
	if buckets != len(x.buckets) {
		return fmt.Errorf("%d live and free buckets, arena of %d", buckets, len(x.buckets))
	}
	return nil
}

// TestIndexMovesBothWays: counts rise by one and by many, fall back to
// the floor (the false-sharing table's eviction), and ties resolve to
// the lowest slot throughout.
func TestIndexMovesBothWays(t *testing.T) {
	x := NewIndex[struct{}](4)
	for k := uint64(10); k < 14; k++ {
		x.Add(k, 1)
	}
	steps := []struct {
		do      func()
		wantMin int
	}{
		{func() {}, 0},
		{func() { x.Incr(0, 1) }, 1},
		{func() { x.Incr(1, 5) }, 2},
		{func() { x.Replace(1, 20, 1) }, 1},
		{func() { x.Incr(2, 2); x.Incr(3, 2); x.Incr(1, 1) }, 0},
		{func() { x.Incr(0, 1); x.Incr(1, 1) }, 0},
	}
	for i, st := range steps {
		st.do()
		if err := x.check(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if got := x.Min(); got != st.wantMin {
			t.Fatalf("step %d: Min = %d, want %d", i, got, st.wantMin)
		}
	}
	if x.Find(11) != -1 || x.Find(20) != 1 {
		t.Fatalf("Replace left the table wrong: Find(11) = %d, Find(20) = %d", x.Find(11), x.Find(20))
	}
}

// TestIndexRemoveAcrossWrap fills one probe run that wraps the table's
// end and removes its members in every order: backward-shift delete must
// keep every survivor reachable.
func TestIndexRemoveAcrossWrap(t *testing.T) {
	x := NewIndex[struct{}](8)
	mask := len(x.table) - 1
	var keys []uint64
	for k := uint64(0); len(keys) < 6; k++ {
		if h := x.home(k); h >= mask-2 || h <= 1 {
			keys = append(keys, k)
		}
	}
	for round := 0; round < len(keys); round++ {
		x = NewIndex[struct{}](8)
		for _, k := range keys {
			x.Add(k, 1)
		}
		for j := range keys {
			k := keys[(round+j*5)%len(keys)]
			x.Replace(x.Find(k), k|1<<63, 1)
			if err := x.check(); err != nil {
				t.Fatalf("round %d, replacing %#x: %v", round, k, err)
			}
		}
	}
}

// TestIndexGrowKeepsSlots: a rebuilt index holds every slot where it was.
func TestIndexGrowKeepsSlots(t *testing.T) {
	x := NewIndex[int](3)
	for k := uint64(1); k <= 3; k++ {
		*x.Val(x.Add(k*7, int64(4-k))) = int(k)
	}
	x.Grow(130)
	if err := x.check(); err != nil {
		t.Fatal(err)
	}
	if x.Cap() != 130 || x.Len() != 3 || x.Min() != 2 {
		t.Fatalf("Cap %d Len %d Min %d, want 130 3 2", x.Cap(), x.Len(), x.Min())
	}
	for s := 0; s < 3; s++ {
		if x.Key(s) != uint64(s+1)*7 || x.Count(s) != int64(3-s) || *x.Val(s) != s+1 {
			t.Fatalf("slot %d = key %d count %d val %d", s, x.Key(s), x.Count(s), *x.Val(s))
		}
	}
}

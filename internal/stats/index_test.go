package stats

import (
	"fmt"
	"math/bits"
	"testing"
)

// check verifies every structural invariant of the index: every link
// is in range, each live slot sits on its own home's chain exactly once
// and no dead slot on any chain, the bucket list is strictly increasing
// with consistent back links, each bucket's bitset holds exactly the
// slots with its count, and live plus free buckets account for the
// whole arena.
func (x *Index[V]) check() error {
	inRange := func(s int32) bool { return s == none || (s >= 0 && int(s) < cap(x.slots)) }
	seen := make([]int, x.Len())
	for h, s := range x.heads {
		for steps := 0; s != none; s, steps = x.slots[:cap(x.slots)][s].next, steps+1 {
			if !inRange(s) {
				return fmt.Errorf("chain %d links to slot %d, outside [0, %d)", h, s, cap(x.slots))
			}
			if int(s) >= x.Len() {
				return fmt.Errorf("chain %d holds slot %d, which is not in use (%d slots)", h, s, x.Len())
			}
			if steps > x.Len() {
				return fmt.Errorf("chain %d does not end", h)
			}
			if home := x.home(x.slots[s].key); home != h {
				return fmt.Errorf("slot %d (key %#x, home %d) is on chain %d", s, x.slots[s].key, home, h)
			}
			seen[s]++
		}
	}
	for s, n := range seen {
		if n != 1 {
			return fmt.Errorf("slot %d (key %#x) is on its chain %d times", s, x.slots[s].key, n)
		}
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

// TestIndexUnlinkAlongChain puts several keys on one home chain and
// hands away the head, a middle member and the tail in turn, in every
// rotation of that order: an unlink must keep the rest of the chain
// reachable and leave the departed key unfindable.
func TestIndexUnlinkAlongChain(t *testing.T) {
	x := NewIndex[struct{}](8)
	var keys []uint64
	for k := uint64(0); len(keys) < 5; k++ {
		if x.home(k) == x.home(0) {
			keys = append(keys, k)
		}
	}
	// Add pushes onto the chain, so the chain runs keys[4] … keys[0]:
	// keys[4] is the head, keys[0] the tail.
	orders := [][]int{{4, 2, 0}, {2, 0, 4}, {0, 4, 2}}
	for _, order := range orders {
		x = NewIndex[struct{}](8)
		for _, k := range keys {
			x.Add(k, 1)
		}
		gone := map[uint64]bool{}
		for _, i := range order {
			k := keys[i]
			s := x.Find(k)
			x.Replace(s, k|1<<63, 1)
			gone[k] = true
			if err := x.check(); err != nil {
				t.Fatalf("order %v, replacing keys[%d]: %v", order, i, err)
			}
			for _, k := range keys {
				if got := x.Find(k); (got < 0) != gone[k] {
					t.Fatalf("order %v, after keys[%d]: Find(%#x) = %d", order, i, k, got)
				}
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

package stats

import "math/bits"

// Index is the slot index under the Space-Saving sketches: up to Cap()
// slots, each holding a uint64 key, an int64 count and a payload V of
// the caller's. A unit Space-Saving update takes O(1) steps whatever
// the number of slots, bar Min's read of ⌈K/64⌉ bitset words:
//
//   - key → slot is a chained hash: a power-of-two heads array at load
//     ≤ 1/4 holds each home's first slot, and each slot links the next
//     slot of its home, so a lookup walks a chain of expected length
//     below one and handing a slot to a new key is an unlink and a push;
//   - counts live in Metwally et al.'s Stream-Summary: one bucket per
//     distinct count, in a doubly linked list ordered by count, each
//     holding a bitset of its slots. Min is the lowest set bit of the
//     first bucket, and a unit step touches only the slot's bucket and
//     its successor.
//
// Slots never move: a key keeps its slot until Replace hands the slot to
// another key, so a walk in slot order is a deterministic function of the
// stream, and Min's tie-break (the lowest slot of the minimum count) is
// the one a linear scan for the first minimum would make.
//
// All storage is sized by NewIndex; no operation but Grow allocates.
type Index[V any] struct {
	slots []slot[V]

	heads []int32 // home → the first slot of its chain, or none
	shift uint    // home(key) = key·φ >> shift

	buckets []bucket
	bits    []uint64 // bucket b's slot bitset: bits[b*words : (b+1)*words]
	words   int
	head    int32 // the lowest-count bucket, or none
	free    int32 // unused buckets, linked through next
}

type slot[V any] struct {
	key    uint64
	count  int64
	bucket int32
	next   int32 // the next slot of this key's home chain, or none
	val    V
}

type bucket struct {
	count      int64
	prev, next int32 // neighbours by count, or none
	size       int32 // slots holding this count
}

const none = -1

// NewIndex sizes an index for capacity slots (capacity ≥ 1). There can
// never be more live buckets than slots, so capacity buckets and their
// bitsets cover every state; the bitset arena is capacity²/8 bytes
// (512 B at 64 slots).
func NewIndex[V any](capacity int) Index[V] {
	if capacity < 1 {
		panic("stats: index capacity must be ≥ 1")
	}
	size, shift := 2, uint(63)
	for size < 4*capacity {
		size, shift = size*2, shift-1
	}
	words := (capacity + 63) / 64
	x := Index[V]{
		slots:   make([]slot[V], 0, capacity),
		heads:   make([]int32, size),
		shift:   shift,
		buckets: make([]bucket, capacity),
		bits:    make([]uint64, capacity*words),
		words:   words,
		head:    none,
	}
	for h := range x.heads {
		x.heads[h] = none
	}
	for b := range x.buckets {
		x.buckets[b].next = int32(b + 1)
	}
	x.buckets[capacity-1].next = none
	return x
}

// Len returns the number of slots in use.
func (x *Index[V]) Len() int { return len(x.slots) }

// Cap returns the number of slots the index holds before it must Grow.
func (x *Index[V]) Cap() int { return cap(x.slots) }

// Key returns the key slot s holds.
func (x *Index[V]) Key(s int) uint64 { return x.slots[s].key }

// Count returns slot s's count.
func (x *Index[V]) Count(s int) int64 { return x.slots[s].count }

// Val returns slot s's payload.
func (x *Index[V]) Val(s int) *V { return &x.slots[s].val }

func (x *Index[V]) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> x.shift)
}

// Find returns the slot holding key, or -1.
func (x *Index[V]) Find(key uint64) int {
	for s := x.heads[x.home(key)]; s != none; s = x.slots[s].next {
		if x.slots[s].key == key {
			return int(s)
		}
	}
	return -1
}

// Add puts key, which must be absent, into the next free slot with count
// c and a zero payload, and returns the slot. The index must not be full.
func (x *Index[V]) Add(key uint64, c int64) int {
	s := len(x.slots)
	h := x.home(key)
	x.slots = append(x.slots, slot[V]{key: key, next: x.heads[h]})
	x.heads[h] = int32(s)
	x.link(s, c, none, x.head)
	return s
}

// Min returns the slot with the lowest count, the lowest such slot on a
// tie, or -1 when the index is empty.
func (x *Index[V]) Min() int {
	if x.head == none {
		return -1
	}
	base := int(x.head) * x.words
	for w, v := range x.bits[base : base+x.words] {
		if v != 0 {
			return w*64 + bits.TrailingZeros64(v)
		}
	}
	panic("stats: index bucket with no slots")
}

// Incr adds n ≥ 0 to slot s's count. A unit step reaches a neighbouring
// bucket; a larger n walks the buckets it passes.
func (x *Index[V]) Incr(s int, n int64) { x.setCount(s, x.slots[s].count+n) }

// Replace hands slot s to key, which must be absent, with count c and a
// zero payload; the key slot s held leaves the index. The slot is
// unlinked from its old key's chain and pushed onto the new key's.
func (x *Index[V]) Replace(s int, key uint64, c int64) {
	sl := &x.slots[s]
	p := &x.heads[x.home(sl.key)]
	for int(*p) != s {
		p = &x.slots[*p].next
	}
	*p = sl.next
	h := x.home(key)
	var zero V
	sl.key, sl.val, sl.next = key, zero, x.heads[h]
	x.heads[h] = int32(s)
	x.setCount(s, c)
}

// Grow rebuilds the index with room for capacity slots, keeping every
// slot's position, key, count and payload. It is the one operation that
// allocates; a capacity at or below Cap is a no-op.
func (x *Index[V]) Grow(capacity int) {
	if capacity <= x.Cap() {
		return
	}
	g := NewIndex[V](capacity)
	for _, sl := range x.slots {
		*g.Val(g.Add(sl.key, sl.count)) = sl.val
	}
	*x = g
}

// setCount moves slot s, which sits in a bucket, to count c.
func (x *Index[V]) setCount(s int, c int64) {
	sl := &x.slots[s]
	switch c - sl.count {
	case 0:
		return
	case 1:
		x.step(s)
		return
	}
	b := sl.bucket
	bk := &x.buckets[b]
	if bk.size == 1 && (bk.prev == none || x.buckets[bk.prev].count < c) &&
		(bk.next == none || x.buckets[bk.next].count > c) {
		// Alone in its bucket and still strictly between the neighbours:
		// the bucket itself takes the new count.
		bk.count, sl.count = c, c
		return
	}
	p, q := b, bk.next
	x.bits[int(b)*x.words+s/64] &^= 1 << (uint(s) % 64)
	if bk.size--; bk.size == 0 {
		p = bk.prev
		x.unlink(b)
	}
	x.link(s, c, p, q)
}

// step raises slot s's count by one, the Space-Saving unit update. It
// touches only the slot's bucket b and b's successor: the slot joins the
// successor when that holds the new count, b takes the new count when
// the slot is alone in it, and otherwise a fresh bucket opens between
// the two.
func (x *Index[V]) step(s int) {
	sl := &x.slots[s]
	b := sl.bucket
	bk := &x.buckets[b]
	c := bk.count + 1
	sl.count = c
	q := bk.next
	if q == none || x.buckets[q].count != c {
		if bk.size == 1 {
			bk.count = c
			return
		}
		n := x.free
		x.free = x.buckets[n].next
		x.buckets[n] = bucket{count: c, prev: b, next: q}
		bk.next = n
		if q != none {
			x.buckets[q].prev = n
		}
		q = n
	}
	w, bit := s/64, uint64(1)<<(uint(s)%64)
	x.bits[int(b)*x.words+w] &^= bit
	x.bits[int(q)*x.words+w] |= bit
	x.buckets[q].size++
	sl.bucket = q
	if bk.size--; bk.size == 0 {
		x.unlink(b)
	}
}

// link puts slot s into the bucket for count c, searching from the gap
// between buckets p and q (either may be none): p's count is at most the
// slot's old count and q's exceeds it, so the walk goes one way only.
func (x *Index[V]) link(s int, c int64, p, q int32) {
	for q != none && x.buckets[q].count <= c {
		p, q = q, x.buckets[q].next
	}
	for p != none && x.buckets[p].count > c {
		p, q = x.buckets[p].prev, p
	}
	b := p
	if p == none || x.buckets[p].count != c {
		b = x.free
		x.free = x.buckets[b].next
		x.buckets[b] = bucket{count: c, prev: p, next: q}
		if p == none {
			x.head = b
		} else {
			x.buckets[p].next = b
		}
		if q != none {
			x.buckets[q].prev = b
		}
	}
	x.bits[int(b)*x.words+s/64] |= 1 << (uint(s) % 64)
	x.buckets[b].size++
	x.slots[s].count, x.slots[s].bucket = c, b
}

// unlink takes the emptied bucket b out of the count list and onto the
// free list; its bitset is already all zero.
func (x *Index[V]) unlink(b int32) {
	p, q := x.buckets[b].prev, x.buckets[b].next
	if p == none {
		x.head = q
	} else {
		x.buckets[p].next = q
	}
	if q != none {
		x.buckets[q].prev = p
	}
	x.buckets[b].next = x.free
	x.free = b
}

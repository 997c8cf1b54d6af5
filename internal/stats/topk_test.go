package stats

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"twobit/internal/rng"
)

func TestTopKExactWhenSmall(t *testing.T) {
	tk := NewTopK(8)
	stream := []uint64{3, 1, 3, 2, 3, 1}
	for _, k := range stream {
		tk.Observe(k)
	}
	got := tk.Items()
	want := []TopItem{{Key: 3, Count: 3}, {Key: 1, Count: 2}, {Key: 2, Count: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Items() = %+v, want %+v", got, want)
	}
}

func TestTopKEvictionErrorBound(t *testing.T) {
	tk := NewTopK(2)
	// Fill: a×3, b×1. Then c arrives: evicts b (min), inherits err=1.
	tk.ObserveN(7, 3)
	tk.Observe(8)
	tk.Observe(9)
	got := tk.Items()
	want := []TopItem{{Key: 7, Count: 3}, {Key: 9, Count: 2, Err: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Items() = %+v, want %+v", got, want)
	}
	// The estimate for any tracked key overshoots by at most Err.
	for _, it := range got {
		if it.Count < it.Err {
			t.Fatalf("key %d: count %d < err %d", it.Key, it.Count, it.Err)
		}
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	run := func() []TopItem {
		tk := NewTopK(3)
		for _, k := range []uint64{1, 2, 3, 4, 5, 4, 6} {
			tk.Observe(k)
		}
		return tk.Items()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same stream, different sketch: %+v vs %+v", a, b)
	}
}

func TestTopKMergeMatchesCombinedCounts(t *testing.T) {
	a, b := NewTopK(4), NewTopK(4)
	a.ObserveN(1, 5)
	a.ObserveN(2, 3)
	b.ObserveN(2, 4)
	b.ObserveN(3, 1)
	a.Merge(b)
	got := a.Items()
	want := []TopItem{{Key: 2, Count: 7}, {Key: 1, Count: 5}, {Key: 3, Count: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged Items() = %+v, want %+v", got, want)
	}
}

func TestTopKMergeOrderIndependent(t *testing.T) {
	mk := func(pairs ...[2]uint64) *TopK {
		tk := NewTopK(3)
		for _, p := range pairs {
			tk.ObserveN(p[0], int64(p[1]))
		}
		return tk
	}
	build := func() [3]*TopK {
		return [3]*TopK{
			mk([2]uint64{1, 4}, [2]uint64{2, 2}),
			mk([2]uint64{2, 3}, [2]uint64{3, 1}),
			mk([2]uint64{4, 6}, [2]uint64{1, 1}),
		}
	}
	orders := [][3]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}, {2, 1, 0}}
	var ref []TopItem
	for i, ord := range orders {
		parts := build()
		acc := NewTopK(3)
		for _, j := range ord {
			acc.Merge(parts[j])
		}
		got := acc.Items()
		if i == 0 {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("merge order %v changed Items: %+v vs %+v", ord, got, ref)
		}
	}
}

func TestTopKMergeNil(t *testing.T) {
	tk := NewTopK(2)
	tk.Observe(1)
	tk.Merge(nil)
	if got := tk.Items(); len(got) != 1 || got[0].Key != 1 {
		t.Fatalf("Merge(nil) disturbed sketch: %+v", got)
	}
}

// mapTopK is the map-plus-scan sketch the slot index replaced, kept
// verbatim as the model TestTopKDifferential and FuzzTopK hold TopK to:
// Go map lookup, append while not full, and an O(K) scan for the first
// minimum on eviction.
type mapTopK struct {
	entries []topEntry
	slots   map[uint64]int // key → index into entries; never ranged over
	k       int
}

type topEntry struct {
	key   uint64
	count int64
	err   int64 // overestimate bound inherited at eviction
}

func newMapTopK(k int) *mapTopK {
	if k <= 0 {
		k = 64
	}
	return &mapTopK{
		entries: make([]topEntry, 0, k),
		slots:   make(map[uint64]int, k),
		k:       k,
	}
}

func (t *mapTopK) ObserveN(key uint64, n int64) {
	if n <= 0 {
		return
	}
	if i, ok := t.slots[key]; ok {
		t.entries[i].count += n
		return
	}
	if len(t.entries) < t.k {
		t.slots[key] = len(t.entries)
		t.entries = append(t.entries, topEntry{key: key, count: n})
		return
	}
	// Evict the minimum-count entry (ties broken by slot index) and
	// inherit its count as the newcomer's error bound.
	min := 0
	for i := 1; i < len(t.entries); i++ {
		if t.entries[i].count < t.entries[min].count {
			min = i
		}
	}
	old := t.entries[min]
	delete(t.slots, old.key)
	t.slots[key] = min
	t.entries[min] = topEntry{key: key, count: old.count + n, err: old.count}
}

func (t *mapTopK) Items() []TopItem {
	out := make([]TopItem, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, TopItem{Key: e.key, Count: e.count, Err: e.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

func (t *mapTopK) Merge(other *mapTopK) {
	if other == nil {
		return
	}
	for _, e := range other.entries {
		if i, ok := t.slots[e.key]; ok {
			t.entries[i].count += e.count
			t.entries[i].err += e.err
			continue
		}
		t.slots[e.key] = len(t.entries)
		t.entries = append(t.entries, e)
	}
}

// diffKs are the capacities the differential scripts run at: the
// degenerate ones, both sides of one bitset word, and three words.
var diffKs = []int{1, 2, 3, 63, 64, 65, 130}

// A TopK script is a first byte choosing the main and side sketches'
// capacities, then two-byte (op, arg) steps. An op below opMerge observes
// a key: bits 0-1 are n-1, bits 2-3 the key class, and opSide sends it to
// the side sketch. An op at or above opMerge merges the side sketch into
// the main one and starts a fresh side sketch whose capacity arg picks.
const (
	opSide  = 1 << 4
	opMerge = 0xe0
)

// scriptKey decodes a key of the given class: dense small keys, a hot
// handful, the extremes 0 and MaxUint64, or keys spread over the word.
func scriptKey(class, arg byte) uint64 {
	switch class {
	case 0:
		return uint64(arg)
	case 1:
		return uint64(arg % 8)
	case 2:
		if arg&1 == 0 {
			return 0
		}
		return math.MaxUint64
	default:
		return uint64(arg) * 0xbf58476d1ce4e5b9
	}
}

// topkMirror runs TopK and its map model side by side.
type topkMirror struct {
	t            *testing.T
	main, side   *TopK
	mainM, sideM *mapTopK
}

func newTopKMirror(t *testing.T, sel byte) *topkMirror {
	km, ks := diffKs[int(sel)%len(diffKs)], diffKs[int(sel)/len(diffKs)%len(diffKs)]
	return &topkMirror{t: t, main: NewTopK(km), side: NewTopK(ks), mainM: newMapTopK(km), sideM: newMapTopK(ks)}
}

// play runs the script, holding both pairs of sketches equal slot for
// slot after every step — the same keys, counts and error bounds in the
// same positions, which fixes Len and Items — and comparing Items
// outright, with the index's own invariants, at every merge and at the
// end.
func (m *topkMirror) play(script []byte) {
	m.t.Helper()
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i], script[i+1]
		if op >= opMerge {
			m.main.Merge(m.side)
			m.mainM.Merge(m.sideM)
			m.compareItems("merged", i/2, m.main, m.mainM)
			k := diffKs[int(arg)%len(diffKs)]
			m.side, m.sideM = NewTopK(k), newMapTopK(k)
		} else {
			key, n := scriptKey(op>>2&3, arg), int64(op&3)+1
			t, model := m.main, m.mainM
			if op&opSide != 0 {
				t, model = m.side, m.sideM
			}
			t.ObserveN(key, n)
			model.ObserveN(key, n)
		}
		m.compareSlots("main", i/2, m.main, m.mainM)
		m.compareSlots("side", i/2, m.side, m.sideM)
	}
	m.compareItems("main", len(script)/2, m.main, m.mainM)
	m.compareItems("side", len(script)/2, m.side, m.sideM)
}

func (m *topkMirror) compareSlots(which string, step int, t *TopK, model *mapTopK) {
	m.t.Helper()
	x := &t.idx
	if x.Len() != len(model.entries) {
		m.t.Fatalf("step %d, %s sketch: Len %d, model %d", step, which, x.Len(), len(model.entries))
	}
	for s, e := range model.entries {
		if got := (topEntry{x.Key(s), x.Count(s), *x.Val(s)}); got != e {
			m.t.Fatalf("step %d, %s sketch (K=%d): slot %d = %+v, model %+v", step, which, t.K(), s, got, e)
		}
	}
}

func (m *topkMirror) compareItems(which string, step int, t *TopK, model *mapTopK) {
	m.t.Helper()
	if err := t.idx.check(); err != nil {
		m.t.Fatalf("step %d, %s sketch: %v", step, which, err)
	}
	if got, want := t.Items(), model.Items(); !reflect.DeepEqual(got, want) {
		m.t.Fatalf("step %d, %s sketch (K=%d):\n got %+v\nwant %+v", step, which, t.K(), got, want)
	}
}

// topkSeams are the scripts FuzzTopK starts from, each one edge the
// index must get right.
var topkSeams = []struct {
	name   string
	script []byte
}{
	// K=1: every new key evicts the one slot and inherits its count.
	{"k1-churn", []byte{0, 0, 1, 0, 2, 0, 1, 3, 3, 0, 1}},
	// The extreme keys 0 and MaxUint64 beside small ones at K=2.
	{"k2-extremes", []byte{1, 8, 0, 8, 1, 0, 0, 8, 0, 0, 5, 8, 1}},
	// Equal minimum counts everywhere: the lowest slot must go first.
	{"k3-ties", []byte{2, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 4, 0, 7}},
	// Weighted observes walk several buckets at once.
	{"k3-weighted", []byte{2, 3, 1, 0, 2, 2, 1, 1, 3, 3, 9, 0, 4}},
	// A merge grows the main sketch past K, and later misses still evict.
	{"merge-then-evict", []byte{1, 0, 1, 0, 2, opSide, 3, opSide | 3, 4, opMerge, 0, 0, 5, 0, 6, 0, 1}},
	// Keys 56 and 90 share one home at K=2: evicting 56 must unlink it
	// and keep 90 on the chain, or 90 is lost to every later lookup.
	{"k2-shared-home", []byte{0x32, 0x41, 56, 0x41, 90, 0x41, 48, 0x41, 90}},
	// Spread keys exercise longer chains and unlinks along them.
	{"k3-spread", []byte{2, 12, 1, 12, 2, 12, 3, 12, 4, 12, 5, 12, 1, 12, 6}},
}

// TestTopKDifferential: the index-backed TopK and the map-plus-scan
// sketch it replaced agree slot for slot after every step of 10,000
// seeded streams — uniform and skewed keys, the extremes 0 and
// MaxUint64, weights 1..4, and a merge mid-stream followed by more
// observes — and the index's own invariants hold throughout.
func TestTopKDifferential(t *testing.T) {
	for _, tc := range topkSeams {
		t.Run(tc.name, func(t *testing.T) { newTopKMirror(t, tc.script[0]).play(tc.script[1:]) })
	}
	streams := 10000
	r := rng.New(0x70bc, 30)
	for round := 0; round < streams; round++ {
		sel := byte(r.Intn(len(diffKs) * len(diffKs)))
		k := diffKs[int(sel)%len(diffKs)]
		steps := k + 8 + r.Intn(2*k+16)
		mergeAt := r.Intn(steps)
		skewed := round&1 == 1
		script := make([]byte, 0, 2*steps)
		for i := 0; i < steps; i++ {
			if i == mergeAt {
				script = append(script, opMerge, byte(r.Intn(256)))
				continue
			}
			op := byte(r.Intn(4)) // n-1
			switch c := r.Intn(32); {
			case c == 0:
				op |= 2 << 2
			case c == 1:
				op |= 3 << 2
			case skewed:
				op |= 1 << 2
			}
			if i < mergeAt && r.Intn(4) == 0 {
				op |= opSide
			}
			arg := byte(r.Intn(256))
			if skewed {
				arg = byte(r.Intn(1 + r.Intn(256)))
			}
			script = append(script, op, arg)
		}
		newTopKMirror(t, sel).play(script)
	}
}

// FuzzTopK plays an arbitrary script against the map model. Scripts are
// cut at 512 bytes, as FuzzSerializer's are, so each input stays cheap.
func FuzzTopK(f *testing.F) {
	for _, tc := range topkSeams {
		f.Add(tc.script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		script = script[:min(len(script), 512)]
		newTopKMirror(t, script[0]).play(script[1:])
	})
}

// TestNewTopKRejectsHugeK: a capacity past MaxTopK is a named panic, not
// an unbounded allocation.
func TestNewTopKRejectsHugeK(t *testing.T) {
	if NewTopK(MaxTopK).K() != MaxTopK {
		t.Fatalf("NewTopK(MaxTopK) did not keep its capacity")
	}
	defer func() {
		want := "stats: top-k capacity 4097 exceeds MaxTopK (4096)"
		if got := recover(); got != want {
			t.Fatalf("NewTopK(MaxTopK+1): panic %v, want %q", got, want)
		}
	}()
	NewTopK(MaxTopK + 1)
}

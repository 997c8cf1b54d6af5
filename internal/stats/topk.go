package stats

import (
	"fmt"
	"sort"
)

// TopK is a Space-Saving heavy-hitter sketch (Metwally et al.): K
// counters over uint64 keys, each overestimating its key's true count by
// at most its recorded error. Updates are deterministic in stream order
// (the minimum-count eviction breaks ties by slot index, which is itself
// a deterministic function of the stream) and O(1): the counters live in
// an Index, so no update hashes through a Go map or scans the K slots.
// It is shared by the trace synthesizer's stream statistics and the obs
// contention profiler.
type TopK struct {
	idx Index[int64] // payload: the overestimate bound inherited at eviction
	k   int
}

// MaxTopK bounds a sketch's capacity, and with it what a plan or a flag
// can make one run allocate: a contention profiler builds three tables
// of this size, each with a K²/8-byte bitset arena (2 MiB at the cap).
const MaxTopK = 4096

// TopItem is one tracked key with its estimated count.
type TopItem struct {
	Key   uint64 `json:"key"`
	Count int64  `json:"count"`
	Err   int64  `json:"err"` // the estimate overshoots by at most Err
}

// NewTopK sizes the sketch for k tracked keys (k ≤ 0 selects 64); k
// above MaxTopK panics.
func NewTopK(k int) *TopK {
	if k <= 0 {
		k = 64
	}
	if k > MaxTopK {
		panic(fmt.Sprintf("stats: top-k capacity %d exceeds MaxTopK (%d)", k, MaxTopK))
	}
	return &TopK{idx: NewIndex[int64](k), k: k}
}

// K returns the configured sketch capacity.
func (t *TopK) K() int { return t.k }

// Len returns the number of keys currently tracked.
func (t *TopK) Len() int { return t.idx.Len() }

// Observe folds one occurrence of key into the sketch.
func (t *TopK) Observe(key uint64) { t.ObserveN(key, 1) }

// ObserveN folds n occurrences of key into the sketch.
func (t *TopK) ObserveN(key uint64, n int64) {
	if n <= 0 {
		return
	}
	x := &t.idx
	if s := x.Find(key); s >= 0 {
		x.Incr(s, n)
		return
	}
	if x.Len() < t.k {
		x.Add(key, n)
		return
	}
	// Evict the minimum-count entry (ties broken by slot index) and
	// inherit its count as the newcomer's error bound.
	s := x.Min()
	old := x.Count(s)
	x.Replace(s, key, old+n)
	*x.Val(s) = old
}

// Items returns the tracked keys, highest estimated count first (key
// breaks ties, so the order is deterministic).
func (t *TopK) Items() []TopItem {
	x := &t.idx
	out := make([]TopItem, 0, x.Len())
	for s := 0; s < x.Len(); s++ {
		out = append(out, TopItem{Key: x.Key(s), Count: x.Count(s), Err: *x.Val(s)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Merge folds the other sketch into t as a union join: counts and error
// bounds for shared keys add, unseen keys are appended, and the slot
// table grows past K if the union demands it (no eviction, so merging is
// commutative and associative up to Items order, which is canonical).
// Sweep aggregation relies on exactly that: merging per-worker sketches
// in any grouping yields identical Items.
func (t *TopK) Merge(other *TopK) {
	if other == nil {
		return
	}
	x, o := &t.idx, &other.idx
	x.Grow(x.Len() + o.Len())
	for s, n := 0, o.Len(); s < n; s++ {
		key, count, err := o.Key(s), o.Count(s), *o.Val(s)
		if i := x.Find(key); i >= 0 {
			x.Incr(i, count)
			*x.Val(i) += err
			continue
		}
		*x.Val(x.Add(key, count)) = err
	}
}

package obs

import "sort"

// Counter is a monotonically increasing event count. The nil *Counter
// (handed out by a nil Recorder) is the disabled instrument: Inc and
// Add on it are free.
type Counter struct {
	name string
	v    uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Name returns the counter's registered name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// HistogramBuckets is the fixed bucket count of every histogram: 31
// equal-width bins plus one overflow bin. Fixed size keeps Observe
// allocation-free and makes any two same-width histograms mergeable.
const HistogramBuckets = 32

// Histogram is a fixed-bucket latency histogram: bucket i counts
// samples in [i*width, (i+1)*width), with the last bucket absorbing
// everything beyond. The nil *Histogram is the disabled instrument.
type Histogram struct {
	// Observe's fields lead, so a sample in the first buckets touches
	// one cache line.
	count   uint64
	sum     uint64
	max     uint64
	width   uint64
	shift   int8 // log₂ width when the width is a power of two, else -1
	buckets [HistogramBuckets]uint64
	name    string
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	var b uint64
	if h.shift >= 0 {
		b = v >> uint(h.shift) // every width the simulator registers: no divide
	} else {
		b = v / h.width
	}
	if b >= HistogramBuckets {
		b = HistogramBuckets - 1
	}
	h.buckets[b]++
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// CounterValue is a counter's frozen state inside a Snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// HistogramValue is a histogram's frozen state inside a Snapshot.
// Buckets is trimmed of trailing zeros (it may be empty) so encoded
// snapshots stay small; index i still means [i*Width, (i+1)*Width).
type HistogramValue struct {
	Name    string   `json:"name"`
	Width   uint64   `json:"width"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Max     uint64   `json:"max"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// Mean returns the mean sample, zero for an empty histogram.
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns the smallest bucket upper bound covering fraction q
// of the samples (the same resolution-bounded quantile the stats
// package reports), zero for an empty histogram.
func (h HistogramValue) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	want := uint64(q * float64(h.Count))
	if want >= h.Count {
		want = h.Count - 1
	}
	var seen uint64
	for i, n := range h.Buckets {
		seen += n
		if seen > want {
			return uint64(i+1)*h.Width - 1
		}
	}
	return h.Max
}

// Snapshot is the frozen, name-sorted state of a recorder's metrics —
// the form that crosses goroutine and process boundaries (merged across
// sweep workers, encoded into system.Results).
type Snapshot struct {
	Counters []CounterValue   `json:"counters,omitempty"`
	Hists    []HistogramValue `json:"hists,omitempty"`

	// Series holds the windowed time-series (name-sorted), empty unless
	// EnableWindows was called. TopBlocks/TopInvBlocks/FalseSharing hold
	// the contention profile (canonical hottest-first order), empty
	// unless EnableContention was called.
	Series       []SeriesValue    `json:"series,omitempty"`
	TopBlocks    []BlockStat      `json:"top_blocks,omitempty"`
	TopInvBlocks []BlockStat      `json:"top_inv_blocks,omitempty"`
	FalseSharing []FalseShareStat `json:"false_sharing,omitempty"`
}

// Snapshot freezes the recorder's metrics, sorted by name. Sorting
// makes the snapshot canonical: two recorders that registered the same
// instruments in different orders snapshot to equal values.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Counters: make([]CounterValue, 0, len(r.counters)),
		Hists:    make([]HistogramValue, 0, len(r.hists)),
	}
	for _, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: c.name, Value: c.v})
	}
	for _, h := range r.hists {
		hv := HistogramValue{Name: h.name, Width: h.width, Count: h.count, Sum: h.sum, Max: h.max}
		trim := len(h.buckets)
		for trim > 0 && h.buckets[trim-1] == 0 {
			trim--
		}
		if trim > 0 {
			hv.Buckets = make([]uint64, trim)
			copy(hv.Buckets, h.buckets[:trim])
		}
		s.Hists = append(s.Hists, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	s.Series = r.windows.freezeSeries()
	if c := r.contention; c != nil {
		s.TopBlocks = freezeTopK(c.refs)
		s.TopInvBlocks = freezeTopK(c.invs)
		s.FalseSharing = c.freezeFalseShare()
	}
	return s
}

// Counter returns the named counter's value and whether it exists.
func (s Snapshot) Counter(name string) (uint64, bool) {
	i := sort.Search(len(s.Counters), func(i int) bool { return s.Counters[i].Name >= name })
	if i < len(s.Counters) && s.Counters[i].Name == name {
		return s.Counters[i].Value, true
	}
	return 0, false
}

// Hist returns the named histogram's value and whether it exists.
func (s Snapshot) Hist(name string) (HistogramValue, bool) {
	i := sort.Search(len(s.Hists), func(i int) bool { return s.Hists[i].Name >= name })
	if i < len(s.Hists) && s.Hists[i].Name == name {
		return s.Hists[i], true
	}
	return HistogramValue{}, false
}

// SeriesNamed returns the named windowed series and whether it exists.
func (s Snapshot) SeriesNamed(name string) (SeriesValue, bool) {
	i := sort.Search(len(s.Series), func(i int) bool { return s.Series[i].Name >= name })
	if i < len(s.Series) && s.Series[i].Name == name {
		return s.Series[i], true
	}
	return SeriesValue{}, false
}

package system

import (
	"bytes"
	"encoding/json"
	"fmt"

	"twobit/internal/cache"
	"twobit/internal/network"
	"twobit/internal/obs"
	"twobit/internal/proto"
	"twobit/internal/sim"
	"twobit/internal/stats"
)

// This file is the stable wire codec for Results. The experiment store
// (internal/sweep) persists run records across campaigns, so the encoding
// must not drift when Go identifiers are refactored: every field is copied
// by name into an explicitly tagged mirror struct. Renaming a Go field
// breaks this file at compile time; the JSON schema — and therefore any
// stored campaign — survives unchanged. The golden-file test in
// encode_test.go pins the schema byte for byte.

// ParseProtocol inverts Protocol.String.
func ParseProtocol(s string) (Protocol, error) {
	for p := range protocols {
		if protocols[p].name == s {
			return Protocol(p), nil
		}
	}
	return 0, fmt.Errorf("system: unknown protocol %q", s)
}

// ParseNetKind inverts NetKind.String.
func ParseNetKind(s string) (NetKind, error) {
	for k := CrossbarNet; k <= OmegaNet; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("system: unknown network kind %q", s)
}

// cacheSideWire mirrors proto.CacheSideStats.
type cacheSideWire struct {
	References           uint64 `json:"refs"`
	Reads                uint64 `json:"reads"`
	Writes               uint64 `json:"writes"`
	CommandsReceived     uint64 `json:"cmds_received"`
	UselessCommands      uint64 `json:"useless_cmds"`
	InvalidationsApplied uint64 `json:"invalidations"`
	QueriesAnswered      uint64 `json:"queries_answered"`
	MRequestsSent        uint64 `json:"mrequests_sent"`
	MRequestsConverted   uint64 `json:"mrequests_converted"`
	Retries              uint64 `json:"retries"`
	EvictionsClean       uint64 `json:"evictions_clean"`
	EvictionsDirty       uint64 `json:"evictions_dirty"`
	ExclusiveWrites      uint64 `json:"exclusive_writes"`
}

func cacheSideToWire(s proto.CacheSideStats) cacheSideWire {
	return cacheSideWire{
		References:           s.References.Value(),
		Reads:                s.Reads.Value(),
		Writes:               s.Writes.Value(),
		CommandsReceived:     s.CommandsReceived.Value(),
		UselessCommands:      s.UselessCommands.Value(),
		InvalidationsApplied: s.InvalidationsApplied.Value(),
		QueriesAnswered:      s.QueriesAnswered.Value(),
		MRequestsSent:        s.MRequestsSent.Value(),
		MRequestsConverted:   s.MRequestsConverted.Value(),
		Retries:              s.Retries.Value(),
		EvictionsClean:       s.EvictionsClean.Value(),
		EvictionsDirty:       s.EvictionsDirty.Value(),
		ExclusiveWrites:      s.ExclusiveWrites.Value(),
	}
}

func cacheSideFromWire(w cacheSideWire) proto.CacheSideStats {
	return proto.CacheSideStats{
		References:           stats.Counter(w.References),
		Reads:                stats.Counter(w.Reads),
		Writes:               stats.Counter(w.Writes),
		CommandsReceived:     stats.Counter(w.CommandsReceived),
		UselessCommands:      stats.Counter(w.UselessCommands),
		InvalidationsApplied: stats.Counter(w.InvalidationsApplied),
		QueriesAnswered:      stats.Counter(w.QueriesAnswered),
		MRequestsSent:        stats.Counter(w.MRequestsSent),
		MRequestsConverted:   stats.Counter(w.MRequestsConverted),
		Retries:              stats.Counter(w.Retries),
		EvictionsClean:       stats.Counter(w.EvictionsClean),
		EvictionsDirty:       stats.Counter(w.EvictionsDirty),
		ExclusiveWrites:      stats.Counter(w.ExclusiveWrites),
	}
}

// storeWire mirrors cache.Stats.
type storeWire struct {
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Evictions    uint64 `json:"evictions"`
	WritebackEv  uint64 `json:"writeback_evictions"`
	SnoopLookups uint64 `json:"snoop_lookups"`
	SnoopHits    uint64 `json:"snoop_hits"`
	StolenCycles uint64 `json:"stolen_cycles"`
}

func storeToWire(s cache.Stats) storeWire {
	return storeWire{
		Hits:         s.Hits.Value(),
		Misses:       s.Misses.Value(),
		Evictions:    s.Evictions.Value(),
		WritebackEv:  s.WritebackEv.Value(),
		SnoopLookups: s.SnoopLookups.Value(),
		SnoopHits:    s.SnoopHits.Value(),
		StolenCycles: s.StolenCycles.Value(),
	}
}

func storeFromWire(w storeWire) cache.Stats {
	return cache.Stats{
		Hits:         stats.Counter(w.Hits),
		Misses:       stats.Counter(w.Misses),
		Evictions:    stats.Counter(w.Evictions),
		WritebackEv:  stats.Counter(w.WritebackEv),
		SnoopLookups: stats.Counter(w.SnoopLookups),
		SnoopHits:    stats.Counter(w.SnoopHits),
		StolenCycles: stats.Counter(w.StolenCycles),
	}
}

// ctrlWire mirrors proto.CtrlStats.
type ctrlWire struct {
	Requests         uint64 `json:"requests"`
	ReadMisses       uint64 `json:"read_misses"`
	WriteMisses      uint64 `json:"write_misses"`
	MRequests        uint64 `json:"mrequests"`
	Ejects           uint64 `json:"ejects"`
	Broadcasts       uint64 `json:"broadcasts"`
	DirectedSends    uint64 `json:"directed_sends"`
	DeletedMRequests uint64 `json:"deleted_mrequests"`
	MGrantDenied     uint64 `json:"mgrant_denied"`
	TBHits           uint64 `json:"tb_hits"`
	TBMisses         uint64 `json:"tb_misses"`
	DMAReads         uint64 `json:"dma_reads"`
	DMAWrites        uint64 `json:"dma_writes"`
	BusyCycles       uint64 `json:"busy_cycles"`
	MaxQueue         int    `json:"max_queue"`
}

func ctrlToWire(s proto.CtrlStats) ctrlWire {
	return ctrlWire{
		Requests:         s.Requests.Value(),
		ReadMisses:       s.ReadMisses.Value(),
		WriteMisses:      s.WriteMisses.Value(),
		MRequests:        s.MRequests.Value(),
		Ejects:           s.Ejects.Value(),
		Broadcasts:       s.Broadcasts.Value(),
		DirectedSends:    s.DirectedSends.Value(),
		DeletedMRequests: s.DeletedMRequests.Value(),
		MGrantDenied:     s.MGrantDenied.Value(),
		TBHits:           s.TBHits.Value(),
		TBMisses:         s.TBMisses.Value(),
		DMAReads:         s.DMAReads.Value(),
		DMAWrites:        s.DMAWrites.Value(),
		BusyCycles:       s.BusyCycles.Value(),
		MaxQueue:         s.MaxQueue,
	}
}

func ctrlFromWire(w ctrlWire) proto.CtrlStats {
	return proto.CtrlStats{
		Requests:         stats.Counter(w.Requests),
		ReadMisses:       stats.Counter(w.ReadMisses),
		WriteMisses:      stats.Counter(w.WriteMisses),
		MRequests:        stats.Counter(w.MRequests),
		Ejects:           stats.Counter(w.Ejects),
		Broadcasts:       stats.Counter(w.Broadcasts),
		DirectedSends:    stats.Counter(w.DirectedSends),
		DeletedMRequests: stats.Counter(w.DeletedMRequests),
		MGrantDenied:     stats.Counter(w.MGrantDenied),
		TBHits:           stats.Counter(w.TBHits),
		TBMisses:         stats.Counter(w.TBMisses),
		DMAReads:         stats.Counter(w.DMAReads),
		DMAWrites:        stats.Counter(w.DMAWrites),
		BusyCycles:       stats.Counter(w.BusyCycles),
		MaxQueue:         w.MaxQueue,
	}
}

// netWire mirrors network.Stats.
type netWire struct {
	Messages        uint64 `json:"messages"`
	ControlMessages uint64 `json:"control_messages"`
	DataMessages    uint64 `json:"data_messages"`
	Broadcasts      uint64 `json:"broadcasts"`
	BroadcastCopies uint64 `json:"broadcast_copies"`
	BusBusyCycles   uint64 `json:"bus_busy_cycles"`
	StageConflicts  uint64 `json:"stage_conflicts"`
}

func netToWire(s network.Stats) netWire {
	return netWire{
		Messages:        s.Messages.Value(),
		ControlMessages: s.ControlMessages.Value(),
		DataMessages:    s.DataMessages.Value(),
		Broadcasts:      s.Broadcasts.Value(),
		BroadcastCopies: s.BroadcastCopies.Value(),
		BusBusyCycles:   s.BusBusyCycles.Value(),
		StageConflicts:  s.StageConflicts.Value(),
	}
}

func netFromWire(w netWire) network.Stats {
	return network.Stats{
		Messages:        stats.Counter(w.Messages),
		ControlMessages: stats.Counter(w.ControlMessages),
		DataMessages:    stats.Counter(w.DataMessages),
		Broadcasts:      stats.Counter(w.Broadcasts),
		BroadcastCopies: stats.Counter(w.BroadcastCopies),
		BusBusyCycles:   stats.Counter(w.BusBusyCycles),
		StageConflicts:  stats.Counter(w.StageConflicts),
	}
}

// obsCounterWire mirrors obs.CounterValue.
type obsCounterWire struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// obsHistWire mirrors obs.HistogramValue.
type obsHistWire struct {
	Name    string   `json:"name"`
	Width   uint64   `json:"width"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Max     uint64   `json:"max"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// obsSeriesWire mirrors obs.SeriesValue. Kind uses the SeriesKind
// string form so stored campaigns stay legible and stable if the Go
// enum is ever reordered.
type obsSeriesWire struct {
	Name   string   `json:"name"`
	Kind   string   `json:"kind"`
	Width  uint64   `json:"width"`
	Values []uint64 `json:"values,omitempty"`
}

// obsBlockWire mirrors obs.BlockStat.
type obsBlockWire struct {
	Block uint64 `json:"block"`
	Count int64  `json:"count"`
	Err   int64  `json:"err,omitempty"`
}

// obsFalseShareWire mirrors obs.FalseShareStat.
type obsFalseShareWire struct {
	Block         uint64 `json:"block"`
	Writes        int64  `json:"writes"`
	WordMask      uint64 `json:"word_mask"`
	ProcMask      uint64 `json:"proc_mask"`
	Interleavings int64  `json:"interleavings"`
}

// obsWire mirrors obs.Snapshot. The windowed/contention fields trail
// the schema and are omitted when absent, so records from runs without
// windows keep their prior byte encoding.
type obsWire struct {
	Counters     []obsCounterWire    `json:"counters,omitempty"`
	Hists        []obsHistWire       `json:"hists,omitempty"`
	Series       []obsSeriesWire     `json:"series,omitempty"`
	TopBlocks    []obsBlockWire      `json:"top_blocks,omitempty"`
	TopInvBlocks []obsBlockWire      `json:"top_inv_blocks,omitempty"`
	FalseSharing []obsFalseShareWire `json:"false_sharing,omitempty"`
}

func seriesKindToWire(k obs.SeriesKind) string { return k.String() }

func seriesKindFromWire(s string) (obs.SeriesKind, error) {
	for k := obs.SeriesSum; k <= obs.SeriesGauge; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("system: unknown series kind %q", s)
}

func blocksToWire(s []obs.BlockStat) []obsBlockWire {
	var out []obsBlockWire
	for _, b := range s {
		out = append(out, obsBlockWire{Block: b.Block, Count: b.Count, Err: b.Err})
	}
	return out
}

func blocksFromWire(w []obsBlockWire) []obs.BlockStat {
	var out []obs.BlockStat
	for _, b := range w {
		out = append(out, obs.BlockStat{Block: b.Block, Count: b.Count, Err: b.Err})
	}
	return out
}

func obsToWire(s *obs.Snapshot) *obsWire {
	if s == nil {
		return nil
	}
	w := &obsWire{}
	for _, c := range s.Counters {
		w.Counters = append(w.Counters, obsCounterWire{Name: c.Name, Value: c.Value})
	}
	for _, h := range s.Hists {
		w.Hists = append(w.Hists, obsHistWire{
			Name: h.Name, Width: h.Width, Count: h.Count, Sum: h.Sum, Max: h.Max, Buckets: h.Buckets,
		})
	}
	for _, sv := range s.Series {
		w.Series = append(w.Series, obsSeriesWire{
			Name: sv.Name, Kind: seriesKindToWire(sv.Kind), Width: sv.Width, Values: sv.Values,
		})
	}
	w.TopBlocks = blocksToWire(s.TopBlocks)
	w.TopInvBlocks = blocksToWire(s.TopInvBlocks)
	for _, f := range s.FalseSharing {
		w.FalseSharing = append(w.FalseSharing, obsFalseShareWire{
			Block: f.Block, Writes: f.Writes, WordMask: f.WordMask,
			ProcMask: f.ProcMask, Interleavings: f.Interleavings,
		})
	}
	return w
}

func obsFromWire(w *obsWire) (*obs.Snapshot, error) {
	if w == nil {
		return nil, nil
	}
	s := &obs.Snapshot{}
	for _, c := range w.Counters {
		s.Counters = append(s.Counters, obs.CounterValue{Name: c.Name, Value: c.Value})
	}
	for _, h := range w.Hists {
		s.Hists = append(s.Hists, obs.HistogramValue{
			Name: h.Name, Width: h.Width, Count: h.Count, Sum: h.Sum, Max: h.Max, Buckets: h.Buckets,
		})
	}
	for _, sv := range w.Series {
		kind, err := seriesKindFromWire(sv.Kind)
		if err != nil {
			return nil, err
		}
		s.Series = append(s.Series, obs.SeriesValue{
			Name: sv.Name, Kind: kind, Width: sv.Width, Values: sv.Values,
		})
	}
	s.TopBlocks = blocksFromWire(w.TopBlocks)
	s.TopInvBlocks = blocksFromWire(w.TopInvBlocks)
	for _, f := range w.FalseSharing {
		s.FalseSharing = append(s.FalseSharing, obs.FalseShareStat{
			Block: f.Block, Writes: f.Writes, WordMask: f.WordMask,
			ProcMask: f.ProcMask, Interleavings: f.Interleavings,
		})
	}
	return s, nil
}

// resultsWire mirrors Results.
type resultsWire struct {
	Protocol string          `json:"protocol"`
	Procs    int             `json:"procs"`
	Cycles   int64           `json:"cycles"`
	Refs     uint64          `json:"refs"`
	Cache    []cacheSideWire `json:"cache"`
	Store    []storeWire     `json:"store"`
	Ctrl     []ctrlWire      `json:"ctrl"`
	Net      netWire         `json:"net"`

	CommandsPerCachePerRef float64 `json:"cmds_per_cache_per_ref"`
	UselessPerCachePerRef  float64 `json:"useless_per_cache_per_ref"`
	StolenCyclesPerRef     float64 `json:"stolen_cycles_per_ref"`
	MissRatio              float64 `json:"miss_ratio"`
	Broadcasts             uint64  `json:"broadcasts"`
	DirectedSends          uint64  `json:"directed_sends"`
	TBHitRatio             float64 `json:"tb_hit_ratio"`
	CyclesPerRef           float64 `json:"cycles_per_ref"`

	LatencyMean       float64 `json:"latency_mean"`
	LatencyP50        uint64  `json:"latency_p50"`
	LatencyP99        uint64  `json:"latency_p99"`
	SharedLatencyMean float64 `json:"shared_latency_mean"`
	CtrlUtilization   float64 `json:"ctrl_utilization"`

	// Obs trails the schema and is omitted when absent, so records from
	// uninstrumented runs keep their pre-observability byte encoding.
	Obs *obsWire `json:"obs,omitempty"`
}

// EncodeStable renders r in the stable wire schema: a single JSON object
// with fixed field names and order, no indentation, suitable for
// line-oriented stores and byte-for-byte comparison across runs.
func (r Results) EncodeStable() ([]byte, error) {
	var buf bytes.Buffer
	if err := r.EncodeStableTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EncodeStableTo appends r's stable wire encoding — the exact bytes
// EncodeStable returns — to buf. Callers that encode many results (the
// sweep executor's workers) reuse one buffer so the encoder's scratch
// space is allocated once per worker, not once per run.
func (r Results) EncodeStableTo(buf *bytes.Buffer) error {
	w := resultsWire{
		Protocol: r.Protocol.String(),
		Procs:    r.Procs,
		Cycles:   int64(r.Cycles),
		Refs:     r.Refs,
		Net:      netToWire(r.Net),

		CommandsPerCachePerRef: r.CommandsPerCachePerRef,
		UselessPerCachePerRef:  r.UselessPerCachePerRef,
		StolenCyclesPerRef:     r.StolenCyclesPerRef,
		MissRatio:              r.MissRatio,
		Broadcasts:             r.Broadcasts,
		DirectedSends:          r.DirectedSends,
		TBHitRatio:             r.TBHitRatio,
		CyclesPerRef:           r.CyclesPerRef,

		LatencyMean:       r.LatencyMean,
		LatencyP50:        r.LatencyP50,
		LatencyP99:        r.LatencyP99,
		SharedLatencyMean: r.SharedLatencyMean,
		CtrlUtilization:   r.CtrlUtilization,

		Obs: obsToWire(r.Obs),
	}
	for _, s := range r.Cache {
		w.Cache = append(w.Cache, cacheSideToWire(s))
	}
	for _, s := range r.Store {
		w.Store = append(w.Store, storeToWire(s))
	}
	for _, s := range r.Ctrl {
		w.Ctrl = append(w.Ctrl, ctrlToWire(s))
	}
	enc := json.NewEncoder(buf)
	if err := enc.Encode(w); err != nil {
		return fmt.Errorf("system: encoding results: %w", err)
	}
	// Encoder.Encode appends a newline json.Marshal does not; the wire
	// format is newline-free (the store adds its own line framing).
	buf.Truncate(buf.Len() - 1)
	return nil
}

// DecodeResults inverts EncodeStable.
func DecodeResults(data []byte) (Results, error) {
	var w resultsWire
	if err := json.Unmarshal(data, &w); err != nil {
		return Results{}, fmt.Errorf("system: decoding results: %w", err)
	}
	p, err := ParseProtocol(w.Protocol)
	if err != nil {
		return Results{}, err
	}
	snap, err := obsFromWire(w.Obs)
	if err != nil {
		return Results{}, err
	}
	r := Results{
		Protocol: p,
		Procs:    w.Procs,
		Cycles:   sim.Time(w.Cycles),
		Refs:     w.Refs,
		Net:      netFromWire(w.Net),

		CommandsPerCachePerRef: w.CommandsPerCachePerRef,
		UselessPerCachePerRef:  w.UselessPerCachePerRef,
		StolenCyclesPerRef:     w.StolenCyclesPerRef,
		MissRatio:              w.MissRatio,
		Broadcasts:             w.Broadcasts,
		DirectedSends:          w.DirectedSends,
		TBHitRatio:             w.TBHitRatio,
		CyclesPerRef:           w.CyclesPerRef,

		LatencyMean:       w.LatencyMean,
		LatencyP50:        w.LatencyP50,
		LatencyP99:        w.LatencyP99,
		SharedLatencyMean: w.SharedLatencyMean,
		CtrlUtilization:   w.CtrlUtilization,

		Obs: snap,
	}
	for _, s := range w.Cache {
		r.Cache = append(r.Cache, cacheSideFromWire(s))
	}
	for _, s := range w.Store {
		r.Store = append(r.Store, storeFromWire(s))
	}
	for _, s := range w.Ctrl {
		r.Ctrl = append(r.Ctrl, ctrlFromWire(s))
	}
	return r, nil
}

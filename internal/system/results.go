package system

import (
	"encoding/json"
	"fmt"
	"strings"

	"twobit/internal/cache"
	"twobit/internal/network"
	"twobit/internal/obs"
	"twobit/internal/proto"
	"twobit/internal/sim"
)

// Results aggregates a run's measurements. The Per-reference metrics are
// the paper's units: Table 4-1 and 4-2 report commands received at each
// cache per memory reference, so CommandsPerCachePerRef corresponds to
// (n-1)·T_R and UselessPerCachePerRef to the added overhead (n-1)·T_SUM.
type Results struct {
	Protocol Protocol `json:"protocol"`
	Procs    int      `json:"procs"`
	Cycles   sim.Time `json:"cycles"`
	Refs     uint64   `json:"refs"` // total processor references completed

	Cache []proto.CacheSideStats `json:"cache"` // per-cache protocol counters
	Store []cache.Stats          `json:"store"` // per-cache storage counters
	Ctrl  []proto.CtrlStats      `json:"ctrl"`  // per-controller counters
	Net   network.Stats          `json:"net"`

	// Derived metrics.
	CommandsPerCachePerRef float64 `json:"cmds_per_cache_per_ref"`    // avg external commands received per cache, per reference issued by one cache
	UselessPerCachePerRef  float64 `json:"useless_per_cache_per_ref"` // avg received commands that found no copy (pure broadcast overhead)
	StolenCyclesPerRef     float64 `json:"stolen_cycles_per_ref"`     // avg cache cycles stolen per reference
	MissRatio              float64 `json:"miss_ratio"`                // overall cache miss ratio
	Broadcasts             uint64  `json:"broadcasts"`                // broadcast operations across all controllers
	DirectedSends          uint64  `json:"directed_sends"`
	TBHitRatio             float64 `json:"tb_hit_ratio"`   // translation-buffer hit ratio (0 when absent)
	CyclesPerRef           float64 `json:"cycles_per_ref"` // elapsed cycles * procs / refs: mean per-reference latency

	// Per-reference latency distribution, in cycles.
	LatencyMean       float64 `json:"latency_mean"`
	LatencyP50        uint64  `json:"latency_p50"`
	LatencyP99        uint64  `json:"latency_p99"`
	SharedLatencyMean float64 `json:"shared_latency_mean"` // latency of shared-stream references only

	// CtrlUtilization is the busiest controller's transaction-cycles
	// divided by elapsed cycles: the mean number of simultaneously open
	// transactions there. A single-command controller (duplication, §3.2.5
	// option 1) saturates at 1.0; a per-block controller can exceed 1 by
	// overlapping transactions. The §2.4.1 bottleneck indicator.
	CtrlUtilization float64 `json:"ctrl_utilization"`

	// Obs holds the run's observability metrics when Config.Obs was set,
	// nil otherwise. Keeping it a pointer (and omitempty on the wire)
	// makes an uninstrumented run's encoding byte-identical to what it
	// was before the observability layer existed.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// SpanMatrix extracts the phase × reference-class latency attribution
// matrix (the measured Table 4-1) from the run's snapshot. ok is false
// when the run recorded no transaction spans — no recorder, or spans
// not enabled on it.
func (r Results) SpanMatrix() (obs.SpanMatrix, bool) {
	if r.Obs == nil {
		return obs.SpanMatrix{}, false
	}
	return obs.SpanMatrixFrom(*r.Obs)
}

// collect builds Results after a successful run.
func (m *Machine) collect(refsPerProc int) Results {
	r := Results{
		Protocol: m.cfg.Protocol,
		Procs:    m.cfg.Procs,
		Cycles:   m.kernel.Now(),
		Refs:     uint64(refsPerProc) * uint64(m.cfg.Procs),
		Net:      *m.net.Stats(),
	}
	var (
		cmds, useless, stolen uint64
		hits, misses          uint64
		tbHits, tbMisses      uint64
	)
	for _, cs := range m.caches {
		s := *cs.SideStats()
		r.Cache = append(r.Cache, s)
		cmds += s.CommandsReceived.Value()
		useless += s.UselessCommands.Value()
		st := *cs.Store().Stats()
		r.Store = append(r.Store, st)
		stolen += st.StolenCycles.Value()
		hits += st.Hits.Value()
		misses += st.Misses.Value()
	}
	for _, ct := range m.ctrls {
		s := *ct.CtrlStats()
		r.Ctrl = append(r.Ctrl, s)
		r.Broadcasts += s.Broadcasts.Value()
		r.DirectedSends += s.DirectedSends.Value()
		tbHits += s.TBHits.Value()
		tbMisses += s.TBMisses.Value()
	}
	perProcRefs := float64(refsPerProc)
	n := float64(m.cfg.Procs)
	if perProcRefs > 0 && n > 0 {
		// Average commands received at one cache, per reference that one
		// cache issues — directly comparable to the tables' units.
		r.CommandsPerCachePerRef = float64(cmds) / n / perProcRefs
		r.UselessPerCachePerRef = float64(useless) / n / perProcRefs
		r.StolenCyclesPerRef = float64(stolen) / n / perProcRefs
	}
	if hits+misses > 0 {
		r.MissRatio = float64(misses) / float64(hits+misses)
	}
	if tbHits+tbMisses > 0 {
		r.TBHitRatio = float64(tbHits) / float64(tbHits+tbMisses)
	}
	if r.Refs > 0 {
		r.CyclesPerRef = float64(r.Cycles) * n / float64(r.Refs)
	}
	if r.Cycles > 0 {
		for _, ct := range m.ctrls {
			u := float64(ct.CtrlStats().BusyCycles.Value()) / float64(r.Cycles)
			if u > r.CtrlUtilization {
				r.CtrlUtilization = u
			}
		}
	}
	r.LatencyMean = m.latencies.Mean()
	r.LatencyP50 = m.latencies.Quantile(0.5)
	r.LatencyP99 = m.latencies.Quantile(0.99)
	r.SharedLatencyMean = m.sharedLatencies.Mean()
	if m.cfg.Obs != nil {
		snap := m.cfg.Obs.Snapshot()
		r.Obs = &snap
	}
	return r
}

// String renders a one-screen summary.
func (r Results) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s, n=%d: %d refs in %d cycles (%.2f cycles/ref/proc; latency mean %.1f p50 %d p99 %d)\n",
		r.Protocol, r.Procs, r.Refs, r.Cycles, r.CyclesPerRef,
		r.LatencyMean, r.LatencyP50, r.LatencyP99)
	fmt.Fprintf(&b, "  miss ratio %.4f; commands/cache/ref %.4f (useless %.4f); stolen cycles/ref %.4f\n",
		r.MissRatio, r.CommandsPerCachePerRef, r.UselessPerCachePerRef, r.StolenCyclesPerRef)
	fmt.Fprintf(&b, "  broadcasts %d, directed sends %d, network messages %d",
		r.Broadcasts, r.DirectedSends, r.Net.Messages.Value())
	if r.TBHitRatio > 0 {
		fmt.Fprintf(&b, ", TB hit ratio %.3f", r.TBHitRatio)
	}
	return b.String()
}

// JSON renders the results in the stable wire schema (EncodeStable's),
// indented, for scripting around the CLIs.
func (r Results) JSON() (string, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("system: encoding results: %w", err)
	}
	return string(out), nil
}

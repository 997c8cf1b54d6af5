package main

import "fmt"

// metricKind says where a metric is reported.
type metricKind uint8

const (
	// endToEnd metrics are what a user of the simulator sees; they come
	// from the untraced pass and carry a regression bound. Every
	// workload reports every one of them (BENCHMARK.json end_to_end).
	endToEnd metricKind = iota
	// perLayer metrics come from the traced pass and the isolated layer
	// drivers; every workload reports every one (BENCHMARK.json
	// per_layer).
	perLayer
	// extra metrics exist on some workloads only (the layer they measure
	// is idle elsewhere); they are printed and appear in -json output,
	// but never in the result line the regression driver reads.
	extra
)

// metricDef is one row of the benchmark's metric registry — the single
// place a metric's name, unit, direction and bound are written down.
// TestBenchmarkJSONMatchesRegistry holds BENCHMARK.json to it.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // endToEnd only: share of the parent's median it may worsen by
	Exact  bool    // a count the simulated machine fixes: two runs of one program at one seed must agree exactly
	Kind   metricKind
}

// Bounds: the share of the parent's median a metric may worsen by. The
// regression driver compares medians over runs at different seeds and
// rejects a benchmark whose own run-to-run spread exceeds a bound, so
// each bound is three times the widest quartile spread seen over ten
// seeds on the seed commit, or the contract's cap of 0.25 where that is
// less (README.md, "Noise and bounds"). Host time on the shared sandbox
// wanders up to 10%; simulated counts move only with the seed's inputs.
const (
	timeBound = 0.25
	tight     = 0.05
	loose     = 0.10
)

var registry = []metricDef{
	{"refs_per_s", "1/s", "higher", timeBound, false, endToEnd},
	{"iter_ms_p50", "ms", "lower", timeBound, false, endToEnd},
	{"ns_per_event", "ns", "lower", timeBound, false, endToEnd},
	{"runs_per_s", "1/s", "higher", timeBound, false, endToEnd},
	{"events_per_ref", "count", "lower", tight, true, endToEnd},
	{"allocs_per_ref", "count", "lower", tight, false, endToEnd},
	{"alloc_bytes_per_ref", "B", "lower", loose, false, endToEnd},
	{"peak_rss_mb", "MB", "lower", timeBound, false, endToEnd},
	{"cycles_per_ref", "cycles", "lower", loose, true, endToEnd},
	{"cmds_per_ref", "count", "lower", timeBound, true, endToEnd},
	{"setup_s", "s", "lower", timeBound, false, endToEnd},

	{"workload.next_ns", "ns", "lower", 0, false, perLayer},
	{"sim.dispatch_ns", "ns", "lower", 0, false, perLayer},
	{"sim.peak_pending", "count", "lower", 0, false, perLayer},
	{"sim.isolated_events_per_s", "1/s", "higher", 0, false, perLayer},
	{"network.msgs_per_ref", "count", "lower", 0, false, perLayer},
	{"network.bcast_copies_per_ref", "count", "lower", 0, false, perLayer},
	{"network.isolated_ns_per_delivery", "ns", "lower", 0, false, perLayer},
	{"network.est_ns_per_ref", "ns", "lower", 0, false, perLayer},
	{"cache.miss_ratio", "ratio", "lower", 0, false, perLayer},
	{"cache.snoop_hit_ratio", "ratio", "higher", 0, false, perLayer},
	{"cache.stolen_cycles_per_ref", "cycles", "lower", 0, false, perLayer},
	{"cache.evictions_per_ref", "count", "lower", 0, false, perLayer},
	{"cache.isolated_ns_per_access", "ns", "lower", 0, false, perLayer},
	{"directory.isolated_ns_per_op", "ns", "lower", 0, false, perLayer},
	{"directory.bytes", "B", "lower", 0, false, perLayer},
	{"directory.fullmap_bytes", "B", "lower", 0, false, perLayer},
	{"proto.event_body_ns", "ns", "lower", 0, false, perLayer},
	{"proto.useless_frac", "ratio", "lower", 0, false, perLayer},
	{"proto.retries_per_ref", "count", "lower", 0, false, perLayer},
	{"core.txns_per_ref", "count", "lower", 0, false, perLayer},
	{"core.broadcasts_per_ref", "count", "lower", 0, false, perLayer},
	{"core.busy_cycles_per_txn", "cycles", "lower", 0, false, perLayer},
	{"core.max_queue", "count", "lower", 0, false, perLayer},
	{"system.build_us", "us", "lower", 0, false, perLayer},
	{"system.prologue_us", "us", "lower", 0, false, perLayer},
	{"system.epilogue_us", "us", "lower", 0, false, perLayer},
	{"system.oracle_ns_per_ref", "ns", "lower", 0, false, perLayer},
	{"system.encode_us", "us", "lower", 0, false, perLayer},
	{"system.fresh_run_us", "us", "lower", 0, false, perLayer},
	{"system.pooled_run_us", "us", "lower", 0, false, perLayer},
	{"system.iter_ms_p90", "ms", "lower", 0, false, perLayer},
	{"harness.clock_ns", "ns", "lower", 0, false, perLayer},
	{"harness.trace_overhead_pct", "%", "lower", 0, false, perLayer},
	{"harness.accounted_frac", "ratio", "higher", 0, false, perLayer},

	// failed ÷ attempted iterations. It must read 0, and a BENCHMARK.json
	// metric may never read 0, so the result line's failed/attempted
	// keys carry it to the driver instead.
	{"failed_frac", "ratio", "lower", 0, true, extra},

	// replay-kv: the trace path.
	{"memtrace.next_ns", "ns", "lower", 0, false, extra},
	{"memtrace.decode_refs_per_s", "1/s", "higher", 0, false, extra},
	{"memtrace.resident_bytes", "B", "lower", 0, false, extra},
	{"tracegen.next_ns", "ns", "lower", 0, false, extra},
	{"tracegen.synth_refs_per_s", "1/s", "higher", 0, false, extra},
	// spectrum-8p and campaign: the only bus users.
	{"network.bus_busy_frac", "ratio", "lower", 0, false, extra},
	// paper-8p and storm-32p: simulated ÷ §4.2 analytic broadcast overhead.
	{"model.useless_vs_tsum", "ratio", "lower", 0, false, extra},
	// observed-8p: the recorder, against its bypass twin paper-8p.
	{"obs.overhead_pct", "%", "lower", 0, false, extra},
	{"obs.allocs_per_ref", "count", "lower", 0, false, extra},
	{"obs.snapshot_bytes", "B", "lower", 0, false, extra},
	{"obs.isolated_counter_ns", "ns", "lower", 0, false, extra},
	{"obs.isolated_window_ns", "ns", "lower", 0, false, extra},
	{"obs.isolated_span_ns", "ns", "lower", 0, false, extra},
	// campaign: the sweep engine around the runs.
	{"sweep.overhead_frac", "ratio", "lower", 0, false, extra},
	{"sweep.allocs_per_run", "count", "lower", 0, false, extra},
	{"sweep.record_bytes", "B", "lower", 0, false, extra},
	{"sweep.store_append_us", "us", "lower", 0, false, extra},
	{"sweep.scaling_w2", "ratio", "higher", 0, false, extra},
}

// protoPrefix names each protocol's rows on spectrum-8p after the
// package that implements it.
var protoPrefix = []string{"core", "fullmap", "fullmap_e", "classical", "duplication", "writeonce", "software"}

func init() {
	for _, p := range protoPrefix {
		registry = append(registry,
			metricDef{p + ".refs_per_s", "1/s", "higher", 0, false, extra},
			metricDef{p + ".allocs_per_ref", "count", "lower", 0, false, extra})
	}
}

// lookup finds a metric's definition. An unregistered name is a bug in
// the harness, not a condition of the run.
func lookup(name string) metricDef {
	for _, d := range registry {
		if d.Name == name {
			return d
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not in the registry", name))
}

// metric is one reported value with the unit the registry gives it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a workload's outcome and the benchmark's result line: the
// regression driver reads exactly these four keys.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) put(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: lookup(name).Unit}
}

// only returns the report restricted to metrics of one kind — the
// result line's shape under -trace 0 and -trace 1.
func (r report) only(kind metricKind) report {
	out := r
	out.Metrics = make(map[string]metric)
	for name, m := range r.Metrics {
		if lookup(name).Kind == kind {
			out.Metrics[name] = m
		}
	}
	return out
}

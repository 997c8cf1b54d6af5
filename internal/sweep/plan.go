// Package sweep plans, executes, checkpoints and aggregates simulation
// campaigns: the cartesian grids of (protocol × network × q × w × n)
// configurations behind the paper's Tables 4-1/4-2 and every extension
// experiment, scaled across worker goroutines without giving up the
// repository's determinism guarantee.
//
// The contract is byte-level: executing a Plan with any number of workers
// produces a result store identical, byte for byte, to the store a single
// worker produces, and a campaign killed partway through converges to that
// same store when resumed. Three properties make this work:
//
//   - Every run is hermetic. A run builds its own workload generator,
//     machine and event kernel from a seed derived deterministically from
//     the plan's root seed and the run's index (an rng.New(rootSeed,
//     runIndex) stream), so execution order cannot leak into results.
//
//   - Records are re-sequenced. Workers deliver finished records over a
//     channel in completion order; the executor buffers them and emits in
//     run-id order, so the store layout is independent of scheduling.
//
//   - The store checkpoints by prefix. Records are appended to a JSON-lines
//     file in run-id order and synced; on resume the store keeps the
//     longest valid prefix (discarding a torn final line) and the executor
//     skips the run ids it already holds.
//
// This package deliberately runs machines on multiple goroutines — each
// machine confined to one goroutine — and is registered as an orchestrator
// with internal/lint's determinism analyzer, which in exchange forbids any
// kernel-reachable package from importing it.
package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"twobit/internal/rng"
	"twobit/internal/sim"
	"twobit/internal/system"
	"twobit/internal/tracegen"
	"twobit/internal/workload"
)

// Plan is the declarative description of a campaign: the cartesian product
// of the axes, times Replicates seed-varied repetitions of each point.
// The zero values of the optional fields are filled by Normalize.
type Plan struct {
	Name string `json:"name"`

	// Axes. Points expand in nesting order protocol → net → q → w → n,
	// with replicates innermost, so run ids are stable for a given plan.
	Protocols []string  `json:"protocols"`
	Nets      []string  `json:"nets,omitempty"` // default ["crossbar"]
	Qs        []float64 `json:"qs"`             // P(reference is shared)
	Ws        []float64 `json:"ws"`             // P(shared reference writes)
	Procs     []int     `json:"procs"`          // n values

	Replicates  int    `json:"replicates,omitempty"`    // default 1
	RefsPerProc int    `json:"refs_per_proc,omitempty"` // default 2000
	RootSeed    uint64 `json:"root_seed,omitempty"`     // default 1

	// Machine shape (0 → system.DefaultConfig's value).
	Modules           int `json:"modules,omitempty"`
	CacheSets         int `json:"cache_sets,omitempty"`
	CacheAssoc        int `json:"cache_assoc,omitempty"`
	NetLatency        int `json:"net_latency,omitempty"`
	NetJitter         int `json:"net_jitter,omitempty"`
	TranslationBuffer int `json:"translation_buffer,omitempty"`

	// Workload shape (§4.2 merged-stream generator).
	SharedBlocks int     `json:"shared_blocks,omitempty"` // default 16
	PrivateHit   float64 `json:"private_hit,omitempty"`   // default 0.9
	PrivateWrite float64 `json:"private_write,omitempty"` // default 0.3
	HotBlocks    int     `json:"hot_blocks,omitempty"`    // default 64
	ColdBlocks   int     `json:"cold_blocks,omitempty"`   // default 512

	// Scenarios optionally replaces the §4.2 generator with serving
	// scenarios (internal/tracegen): each entry is a spec, resolved
	// against the preset of the same name, and becomes one more campaign
	// axis between net and q. Per point, the q axis overrides the
	// scenario's shared fraction, the w axis its write-heavy write
	// probability, and the run's hermetic seed its seed — so replicates
	// vary and the workload-shape fields above are ignored. Empty keeps
	// the classic generator (and run ids identical to older plans).
	Scenarios []tracegen.Spec `json:"scenarios,omitempty"`

	// TraceCache names a directory caching synthesized scenario
	// segments on disk (chunked trace format), keyed by the resolved
	// per-point spec — so repeated sweeps over one scenario replay the
	// stored segment instead of re-synthesizing it. Replay through the
	// cache is byte-identical to live generation; any cache trouble
	// (unwritable directory, corrupt entry) falls back to synthesizing
	// live. Empty disables caching. Points without scenarios ignore it.
	TraceCache string `json:"trace_cache,omitempty"`

	// NoOracle disables the per-run linearizability checker; the default
	// is checking on, so every campaign doubles as a correctness sweep.
	NoOracle bool `json:"no_oracle,omitempty"`

	// Obs attaches a metrics-only observability recorder to every run, so
	// each record's results carry the full counter/histogram snapshot
	// (queue depths, transaction cycles, directory transitions, …) on top
	// of the headline statistics. Event tracing stays off — traces are
	// recorded on demand by TracePoint / cmd/coherencetrace, not stored
	// per run. The recorder is passive: results are byte-identical to an
	// uninstrumented run modulo the added "obs" section.
	Obs bool `json:"obs,omitempty"`

	// Spans additionally enables transaction-span latency attribution:
	// each record's snapshot gains the span/<class>/<phase> histogram
	// matrix (the measured Table 4-1). Implies a recorder even when Obs
	// is false. Aggregation only — per-span trace detail is never stored
	// in campaigns (use cmd/coherencetrace -format spans to see it).
	Spans bool `json:"spans,omitempty"`

	// ObsWindow > 0 additionally enables windowed time-series aggregation
	// with the given window width in sim cycles: each record's snapshot
	// gains the per-window series (miss/invalidation/upgrade rates, queue
	// depths, network occupancy, directory-state census). Implies a
	// recorder even when Obs is false. cmd/obsreport merges the per-run
	// series across replicates into the campaign view.
	ObsWindow uint64 `json:"obs_window,omitempty"`

	// ObsTopK > 0 additionally enables per-block contention attribution
	// with the given sketch capacity: each record's snapshot gains the
	// top-K hot/invalidated blocks and the false-sharing table. Implies a
	// recorder even when Obs is false.
	ObsTopK int `json:"obs_topk,omitempty"`
}

// Point is one expanded run of a plan.
type Point struct {
	RunID     int
	Protocol  system.Protocol
	Net       system.NetKind
	Q, W      float64
	Procs     int
	Replicate int
	// Seed drives both the workload generator and the machine; it is the
	// first draw of the rng.New(RootSeed, RunID) stream.
	Seed uint64
	// Scenario names the serving scenario driving the run's workload
	// ("" = the classic §4.2 generator).
	Scenario string
	// scenario indexes Plan.Scenarios (-1 when the plan has none).
	scenario int
}

// Normalize fills defaulted fields in place.
func (p *Plan) Normalize() {
	if len(p.Nets) == 0 {
		p.Nets = []string{system.CrossbarNet.String()}
	}
	if p.Replicates == 0 {
		p.Replicates = 1
	}
	if p.RefsPerProc == 0 {
		p.RefsPerProc = 2000
	}
	if p.RootSeed == 0 {
		p.RootSeed = 1
	}
	if p.SharedBlocks == 0 {
		p.SharedBlocks = 16
	}
	if p.PrivateHit == 0 {
		p.PrivateHit = 0.9
	}
	if p.PrivateWrite == 0 {
		p.PrivateWrite = 0.3
	}
	if p.HotBlocks == 0 {
		p.HotBlocks = 64
	}
	if p.ColdBlocks == 0 {
		p.ColdBlocks = 512
	}
}

// Validate reports the first configuration error in the plan, expanding
// every point and validating its machine configuration.
func (p *Plan) Validate() error {
	for _, axis := range []struct {
		name string
		n    int
	}{
		{"protocols", len(p.Protocols)},
		{"qs", len(p.Qs)},
		{"ws", len(p.Ws)},
		{"procs", len(p.Procs)},
	} {
		if axis.n == 0 {
			return fmt.Errorf("sweep: plan %q has an empty %s axis", p.Name, axis.name)
		}
	}
	if p.Replicates < 1 {
		return fmt.Errorf("sweep: plan %q: replicates must be ≥ 1, got %d", p.Name, p.Replicates)
	}
	if p.RefsPerProc < 1 {
		return fmt.Errorf("sweep: plan %q: refs_per_proc must be ≥ 1, got %d", p.Name, p.RefsPerProc)
	}
	for _, s := range p.Protocols {
		if _, err := system.ParseProtocol(s); err != nil {
			return fmt.Errorf("sweep: plan %q: %w", p.Name, err)
		}
	}
	for _, s := range p.Nets {
		if _, err := system.ParseNetKind(s); err != nil {
			return fmt.Errorf("sweep: plan %q: %w", p.Name, err)
		}
	}
	seen := make(map[string]bool, len(p.Scenarios))
	for i, s := range p.Scenarios {
		name := tracegen.Resolve(s).Name
		if name == "" {
			return fmt.Errorf("sweep: plan %q: scenario %d has no name", p.Name, i)
		}
		if seen[name] {
			return fmt.Errorf("sweep: plan %q: duplicate scenario %q", p.Name, name)
		}
		seen[name] = true
	}
	points, err := p.Points()
	if err != nil {
		return err
	}
	for _, pt := range points {
		if err := p.Config(pt).Validate(); err != nil {
			return fmt.Errorf("sweep: plan %q run %d: %w", p.Name, pt.RunID, err)
		}
		if pt.scenario >= 0 {
			if err := p.scenarioSpec(pt).Validate(); err != nil {
				return fmt.Errorf("sweep: plan %q run %d (scenario %s): %w", p.Name, pt.RunID, pt.Scenario, err)
			}
		} else if err := p.workloadConfig(pt).Validate(); err != nil {
			return fmt.Errorf("sweep: plan %q run %d: %w", p.Name, pt.RunID, err)
		}
	}
	return nil
}

// Size returns the number of runs the plan expands to.
func (p *Plan) Size() int {
	scens := len(p.Scenarios)
	if scens == 0 {
		scens = 1
	}
	return len(p.Protocols) * len(p.Nets) * scens * len(p.Qs) * len(p.Ws) * len(p.Procs) * p.Replicates
}

// scenarioAxis returns the scenario entries to expand over: the plan's
// scenarios, or a single sentinel "no scenario" entry — so plans
// without scenarios expand to exactly the points (and run ids, and
// seeds) they did before the axis existed.
func (p *Plan) scenarioAxis() []Point {
	if len(p.Scenarios) == 0 {
		return []Point{{Scenario: "", scenario: -1}}
	}
	axis := make([]Point, len(p.Scenarios))
	for i, s := range p.Scenarios {
		axis[i] = Point{Scenario: tracegen.Resolve(s).Name, scenario: i}
	}
	return axis
}

// Points expands the plan into its runs, in run-id order.
func (p *Plan) Points() ([]Point, error) {
	points := make([]Point, 0, p.Size())
	id := 0
	for _, ps := range p.Protocols {
		protocol, err := system.ParseProtocol(ps)
		if err != nil {
			return nil, err
		}
		for _, ns := range p.Nets {
			net, err := system.ParseNetKind(ns)
			if err != nil {
				return nil, err
			}
			for _, scen := range p.scenarioAxis() {
				for _, q := range p.Qs {
					for _, w := range p.Ws {
						for _, n := range p.Procs {
							for r := 0; r < p.Replicates; r++ {
								points = append(points, Point{
									RunID:     id,
									Protocol:  protocol,
									Net:       net,
									Q:         q,
									W:         w,
									Procs:     n,
									Replicate: r,
									Seed:      rng.New(p.RootSeed, uint64(id)).Uint64(),
									Scenario:  scen.Scenario,
									scenario:  scen.scenario,
								})
								id++
							}
						}
					}
				}
			}
		}
	}
	return points, nil
}

// Config builds the machine configuration for one point. Protocols with
// structural requirements are adjusted the way the benchmark harness does:
// duplication centralizes to one module, write-once forces the bus.
func (p *Plan) Config(pt Point) system.Config {
	cfg := system.DefaultConfig(pt.Protocol, pt.Procs)
	if p.Modules > 0 {
		cfg.Modules = p.Modules
	}
	if p.CacheSets > 0 {
		cfg.CacheSets = p.CacheSets
	}
	if p.CacheAssoc > 0 {
		cfg.CacheAssoc = p.CacheAssoc
	}
	if p.NetLatency > 0 {
		cfg.NetLatency = sim.Time(p.NetLatency)
	}
	cfg.NetJitter = sim.Time(p.NetJitter)
	cfg.TranslationBufferSize = p.TranslationBuffer
	cfg.Net = pt.Net
	cfg.Seed = pt.Seed
	cfg.Oracle = !p.NoOracle
	if pt.Protocol == system.Duplication {
		cfg.Modules = 1
	}
	if pt.Protocol == system.WriteOnce {
		cfg.Net = system.BusNet
	}
	return cfg
}

// scenarioSpec resolves the scenario spec for a scenario point,
// specialized to the point's coordinates.
func (p *Plan) scenarioSpec(pt Point) tracegen.Spec {
	return tracegen.Resolve(p.Scenarios[pt.scenario]).At(pt.Procs, pt.Q, pt.W, pt.Seed)
}

// generator builds the workload source for one point — the single
// construction path shared by campaign execution and trace replay, so
// the two can never drift. Generators from this path may hold
// resources (cached trace segments); callers release them with
// tracegen.CloseGenerator after the run.
func (p *Plan) generator(pt Point) workload.Generator {
	if pt.Scenario != "" {
		spec := p.scenarioSpec(pt)
		if p.TraceCache != "" {
			if gen, err := tracegen.CachedGenerator(p.TraceCache, spec, p.RefsPerProc); err == nil {
				return gen
			}
			// Cache trouble is never fatal: live generation produces the
			// identical reference stream.
		}
		return tracegen.New(spec)
	}
	return workload.NewSharedPrivate(p.workloadConfig(pt))
}

// workloadConfig builds the generator parameters for one point.
func (p *Plan) workloadConfig(pt Point) workload.SharedPrivateConfig {
	return workload.SharedPrivateConfig{
		Procs:        pt.Procs,
		SharedBlocks: p.SharedBlocks,
		Q:            pt.Q,
		W:            pt.W,
		PrivateHit:   p.PrivateHit,
		PrivateWrite: p.PrivateWrite,
		HotBlocks:    p.HotBlocks,
		ColdBlocks:   p.ColdBlocks,
		Seed:         pt.Seed,
	}
}

// ReadPlan parses, normalizes and validates a JSON plan.
func ReadPlan(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("sweep: parsing plan: %w", err)
	}
	p.Normalize()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// ReadPlanFile is ReadPlan over the file at path, or over standard input
// when path is "-": the one plan opener every CLI shares.
func ReadPlanFile(path string) (*Plan, error) {
	if path == "-" {
		return ReadPlan(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	defer f.Close()
	return ReadPlan(f)
}

// MarshalIndent renders the plan as indented JSON (the plan file format).
func (p *Plan) MarshalIndent() ([]byte, error) {
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("sweep: encoding plan: %w", err)
	}
	return append(out, '\n'), nil
}

// ExamplePlan returns a small, valid plan documenting the format.
func ExamplePlan() *Plan {
	p := &Plan{
		Name:        "example",
		Protocols:   []string{system.TwoBit.String(), system.FullMap.String()},
		Qs:          []float64{0.05, 0.10},
		Ws:          []float64{0.2, 0.3},
		Procs:       []int{4, 8},
		Replicates:  2,
		RefsPerProc: 1000,
		RootSeed:    7,
	}
	p.Normalize()
	return p
}

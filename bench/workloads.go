package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"twobit/internal/memtrace"
	"twobit/internal/model"
	"twobit/internal/obs"
	"twobit/internal/sweep"
	"twobit/internal/system"
	"twobit/internal/tracegen"
	"twobit/internal/workload"
)

// machineCase is one machine run of a workload iteration: a fresh
// configuration and reference stream each time mk is called, so an
// iteration shares no state with the one before it.
type machineCase struct {
	name  string // golden.json key: protocol name, or run id for campaign
	procs int
	refs  int // per processor
	mk    func() (system.Config, workload.Generator)
}

// workloadDef names a workload and fixes its size. Iteration counts are
// fixed, not time-boxed, so both sides of a comparison do identical
// work; -seconds overrides that for the regression driver, whose
// contract is a run of given length.
type workloadDef struct {
	name  string
	why   string
	iters int
	build func(seed uint64, scale int, dir string) (*instance, error)
	// extras reports the metrics of layers only this workload loads
	// (layers.go); nil when it has none.
	extras func(r *report, p *prepared, tw twins) error
}

// instance is a workload set up for one seed: the cases an iteration
// runs, and for campaign the plan the untraced pass hands to sweep.
type instance struct {
	cases []machineCase
	plan  *sweep.Plan
	dir   string // scratch directory, inside the checkout
	// replay-kv only: the synthesized trace, the spec it came from and how
	// fast synthesis went.
	tracePath     string
	spec          tracegen.Spec
	synthRefsPerS float64
	close         func()
}

var allProtocols = []system.Protocol{
	system.TwoBit, system.FullMap, system.FullMapExclusive, system.Classical,
	system.Duplication, system.WriteOnce, system.Software,
}

// The six workloads. README.md says why each exists and which layers it
// loads; BENCHMARK.json repeats the one-line reasons.
var workloads = []workloadDef{
	{"paper-8p", "hit-dominated two-bit point ROADMAP quotes: generator, cache agent, driver and oracle do the work, network and controller little", 150,
		func(seed uint64, scale int, _ string) (*instance, error) {
			return &instance{cases: []machineCase{sharedPrivateCase(system.TwoBit, 8, 0.05, 0.2, 25000/scale, seed, false)}}, nil
		}, modelExtras(model.ModerateSharing, 8, 0.2)},
	{"storm-32p", "write-heavy sharing at 32 caches: broadcast fan-out, kernel heap depth and snoops dominate, the generator is idle - the twin of paper-8p", 110,
		func(seed uint64, scale int, _ string) (*instance, error) {
			return &instance{cases: []machineCase{sharedPrivateCase(system.TwoBit, 32, 0.10, 0.4, 4000/scale, seed, false)}}, nil
		}, modelExtras(model.HighSharing, 32, 0.4)},
	{"replay-kv", "miss-dominated streamed MTRC2 replay of kv-serving: controller transactions, directed sends, replacement and trace decode do the work", 110, buildReplay, replayExtras},
	{"spectrum-8p", "one stream through all seven protocols: a gain for one engine that costs another shows here; the only bus-network user", 100,
		func(seed uint64, scale int, _ string) (*instance, error) {
			in := &instance{}
			for _, p := range allProtocols {
				in.cases = append(in.cases, sharedPrivateCase(p, 8, 0.05, 0.2, 5000/scale, seed, false))
			}
			return in, nil
		}, spectrumExtras},
	{"observed-8p", "paper-8p with a full obs.Recorder attached: obs is the only thing that differs from its bypass twin paper-8p", 100,
		func(seed uint64, scale int, _ string) (*instance, error) {
			return &instance{cases: []machineCase{sharedPrivateCase(system.TwoBit, 8, 0.05, 0.2, 25000/scale, seed, true)}}, nil
		}, obsExtras},
	{"campaign", "84 short runs per pass through sweep.Execute: machine pool reset, invariants, collect and encode dominate, protocol engines matter least", 48, buildCampaign, sweepExtras},
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sharedPrivate is the §4.2 generator with the repo's standard shape
// (16 shared blocks, 64 hot + 512 cold private blocks per processor).
func sharedPrivate(procs int, q, w float64, seed uint64) workload.Generator {
	return workload.NewSharedPrivate(workload.SharedPrivateConfig{
		Procs: procs, SharedBlocks: 16, Q: q, W: w,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 64, ColdBlocks: 512, Seed: seed,
	})
}

// machineConfig is DefaultConfig with the two structural adjustments
// the protocols demand (central duplication, write-once on the bus).
func machineConfig(p system.Protocol, procs int, seed uint64) system.Config {
	cfg := system.DefaultConfig(p, procs)
	cfg.Seed = seed
	if p == system.Duplication {
		cfg.Modules = 1
	}
	if p == system.WriteOnce {
		cfg.Net = system.BusNet
	}
	return cfg
}

func sharedPrivateCase(p system.Protocol, procs int, q, w float64, refs int, seed uint64, observed bool) machineCase {
	return machineCase{name: p.String(), procs: procs, refs: refs, mk: func() (system.Config, workload.Generator) {
		cfg := machineConfig(p, procs, seed)
		if observed {
			cfg.Obs = obs.New(0)
			cfg.Obs.EnableSpans(0)
			cfg.Obs.EnableWindows(obs.DefaultWindowWidth)
			cfg.Obs.EnableContention(obs.DefaultContentionK)
		}
		return cfg, sharedPrivate(procs, q, w, seed)
	}}
}

// buildReplay synthesizes the kv-serving preset into an MTRC2 file under
// dir and replays it streamed, the way cmd/coherencesim -trace does.
func buildReplay(seed uint64, scale int, dir string) (*instance, error) {
	const procs = 8
	refs := 12500 / scale
	spec := tracegen.Resolve(tracegen.Spec{Name: "kv-serving", Procs: procs, Seed: seed})
	path := filepath.Join(dir, "replay-kv.mtrc2")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	err = tracegen.Synthesize(f, spec, refs, 0, nil)
	synth := time.Since(t0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("synthesizing %s: %w", path, err)
	}
	src, err := memtrace.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return &instance{
		cases: []machineCase{{name: system.TwoBit.String(), procs: procs, refs: refs, mk: func() (system.Config, workload.Generator) {
			return machineConfig(system.TwoBit, procs, seed), src.Generator()
		}}},
		tracePath:     path,
		spec:          spec,
		synthRefsPerS: float64(procs*refs) / synth.Seconds(),
		close:         func() { _ = memtrace.CloseSource(src) }, // read-only mapping
	}, nil
}

// buildCampaign expands the plan into cases as well, so the traced pass
// can take the same 84 runs apart machine by machine; the untraced pass
// hands the plan to sweep.Execute. The digests of the two must agree,
// which holds the case expansion to what sweep really runs.
func buildCampaign(seed uint64, scale int, _ string) (*instance, error) {
	plan := &sweep.Plan{
		Name:        "campaign",
		Qs:          []float64{0.01, 0.10},
		Ws:          []float64{0.2, 0.4},
		Procs:       []int{4, 8, 16},
		RefsPerProc: 500 / scale,
		RootSeed:    seed,
	}
	for _, p := range allProtocols {
		plan.Protocols = append(plan.Protocols, p.String())
	}
	plan.Normalize()
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	points, err := plan.Points()
	if err != nil {
		return nil, err
	}
	in := &instance{plan: plan}
	for _, pt := range points {
		pt := pt
		in.cases = append(in.cases, machineCase{name: fmt.Sprintf("run-%d", pt.RunID), procs: pt.Procs, refs: plan.RefsPerProc,
			mk: func() (system.Config, workload.Generator) {
				return plan.Config(pt), workload.NewSharedPrivate(workload.SharedPrivateConfig{
					Procs: pt.Procs, SharedBlocks: plan.SharedBlocks, Q: pt.Q, W: pt.W,
					PrivateHit: plan.PrivateHit, PrivateWrite: plan.PrivateWrite,
					HotBlocks: plan.HotBlocks, ColdBlocks: plan.ColdBlocks, Seed: pt.Seed,
				})
			}})
	}
	return in, nil
}

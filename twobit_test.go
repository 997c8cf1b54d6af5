package twobit

import (
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	cfg := DefaultConfig(TwoBit, 4)
	gen := NewSharedPrivateWorkload(SharedPrivateConfig{
		Procs: 4, SharedBlocks: 16, Q: 0.05, W: 0.2,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 32, ColdBlocks: 128, Seed: 1,
	})
	m, err := NewMachine(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refs != 8000 {
		t.Fatalf("refs = %d", res.Refs)
	}
}

func TestAllPublicProtocolsRun(t *testing.T) {
	for _, p := range []Protocol{TwoBit, FullMap, FullMapExclusive, Classical, Duplication, WriteOnce, Software} {
		cfg := DefaultConfig(p, 4)
		gen := NewSharedPrivateWorkload(SharedPrivateConfig{
			Procs: 4, SharedBlocks: 8, Q: 0.1, W: 0.3,
			PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 16, ColdBlocks: 64, Seed: 2,
		})
		m, err := NewMachine(cfg, gen)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if _, err := m.Run(500); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
	}
}

func TestWorkloadConstructors(t *testing.T) {
	for name, g := range map[string]Generator{
		"matmul":    NewMatMulWorkload(4, 8, 8, 4),
		"prodcons":  NewProducerConsumerWorkload(4, 8),
		"locks":     NewLockContentionWorkload(4, 4, 1),
		"migration": NewMigrationWorkload(4, 4, 8, 100, 1),
	} {
		if g.Blocks() < 1 {
			t.Errorf("%s: Blocks() = %d", name, g.Blocks())
		}
		if r := g.Next(0); int(r.Block) >= g.Blocks() {
			t.Errorf("%s: ref out of range", name)
		}
	}
}

func TestAnalyticEntryPoints(t *testing.T) {
	if v := Overhead41(HighSharing, 64, 0.1); v < 34 || v > 36 {
		t.Fatalf("Overhead41 corner = %v, want ≈ 34.839", v)
	}
	if v := Overhead42(DefaultDubois(8, 0.05, 0.2)); v <= 0 {
		t.Fatalf("Overhead42 = %v", v)
	}
	if len(Table41()) != 3 || len(Table42()) != 3 {
		t.Fatal("table grids have wrong shape")
	}
}

func TestRenderings(t *testing.T) {
	t41 := RenderTable41()
	for _, want := range []string{"Table 4-1", "case 1", "w = 0.1", "34.839"} {
		if !strings.Contains(t41, want) {
			t.Errorf("RenderTable41 missing %q", want)
		}
	}
	t42 := RenderTable42()
	for _, want := range []string{"Table 4-2", "q = 0.01", "q = 0.10"} {
		if !strings.Contains(t42, want) {
			t.Errorf("RenderTable42 missing %q", want)
		}
	}
	cmp := CompareTable41()
	if !strings.Contains(cmp, "(0.970)") {
		t.Errorf("CompareTable41 must show the paper's misprinted cell, got:\n%s", cmp)
	}
	if !strings.Contains(CompareTable42(), "(0.599)") {
		t.Error("CompareTable42 missing a paper cell")
	}
}

func TestSharingLevelsExported(t *testing.T) {
	if LowSharing.Q >= ModerateSharing.Q || ModerateSharing.Q >= HighSharing.Q {
		t.Fatal("sharing levels out of order")
	}
}

func TestZipfWorkloadThroughMachine(t *testing.T) {
	gen := NewZipfSharedWorkload(ZipfSharedConfig{
		Procs: 4, SharedBlocks: 16, Skew: 1.2, Q: 0.2, W: 0.4,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 16, ColdBlocks: 64, Seed: 2,
	})
	m, err := NewMachine(DefaultConfig(TwoBit, 4), gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(2000); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRecordReplayThroughMachine(t *testing.T) {
	base := NewSharedPrivateWorkload(SharedPrivateConfig{
		Procs: 4, SharedBlocks: 16, Q: 0.1, W: 0.3,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 16, ColdBlocks: 64, Seed: 5,
	})
	tr := RecordTrace(base, 4, 1000)
	// The same trace drives two different protocols; results must be
	// produced without coherence violations on both.
	for _, p := range []Protocol{TwoBit, FullMap} {
		m, err := NewMachine(DefaultConfig(p, 4), tr.Generator())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(1000); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
	}
	// Same trace, same config ⇒ identical results.
	run := func() Results {
		m, err := NewMachine(DefaultConfig(TwoBit, 4), tr.Generator())
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(1000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Net.Messages != b.Net.Messages {
		t.Fatal("trace replay not deterministic")
	}
}

func TestResultsJSON(t *testing.T) {
	m, err := NewMachine(DefaultConfig(TwoBit, 4), sharingGenPublic(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	js, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"Protocol": "two-bit"`, `"Refs": 2000`, `"LatencyP99"`} {
		if !strings.Contains(js, want) {
			t.Errorf("JSON missing %q", want)
		}
	}
}

func sharingGenPublic(procs int) Generator {
	return NewSharedPrivateWorkload(SharedPrivateConfig{
		Procs: procs, SharedBlocks: 16, Q: 0.1, W: 0.3,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 16, ColdBlocks: 64, Seed: 8,
	})
}

func TestLatencyMetricsPopulated(t *testing.T) {
	m, err := NewMachine(DefaultConfig(TwoBit, 4), sharingGenPublic(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyMean <= 0 || res.LatencyP50 == 0 || res.LatencyP99 < res.LatencyP50 {
		t.Fatalf("latency metrics implausible: mean=%v p50=%d p99=%d",
			res.LatencyMean, res.LatencyP50, res.LatencyP99)
	}
	if res.SharedLatencyMean <= res.LatencyMean/4 {
		t.Fatalf("shared latency %v implausibly small vs overall %v",
			res.SharedLatencyMean, res.LatencyMean)
	}
}

func TestModelCheckPublicAPI(t *testing.T) {
	cfg := DefaultConfig(TwoBit, 2)
	cfg.Modules = 1
	cfg.CacheSets = 4
	cfg.CacheAssoc = 1
	res, err := ModelCheck(MCScenario{
		Config: cfg,
		Blocks: 8,
		Scripts: [][]Ref{
			{{Block: 0, Write: true, Shared: true}},
			{{Block: 0, Write: true, Shared: true}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths < 2 || res.Truncated {
		t.Fatalf("unexpected exploration: %+v", res)
	}
}

func TestCostTablePublicAPI(t *testing.T) {
	rows := CostTable(16)
	if len(rows) != 5 || rows[2].FullMapBits != 17 {
		t.Fatalf("cost table wrong: %+v", rows)
	}
	if v := ClassicalInvalidationsPerRef(8, 0.3); v != 2.1 {
		t.Fatalf("classical closed form = %v", v)
	}
}

func TestObservatoryFacade(t *testing.T) {
	run := func() (Results, ObsSnapshot) {
		t.Helper()
		cfg := DefaultConfig(TwoBit, 4)
		rec := NewRecorder(0)
		rec.EnableWindows(DefaultWindowWidth)
		rec.EnableContention(DefaultContentionK)
		cfg.Obs = rec
		gen := NewSharedPrivateWorkload(SharedPrivateConfig{
			Procs: 4, SharedBlocks: 4, Q: 0.4, W: 0.5,
			PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 16, ColdBlocks: 64, Seed: 7,
		})
		m, err := NewMachine(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(2000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Obs == nil {
			t.Fatal("Results.Obs nil on an instrumented run")
		}
		return res, *res.Obs
	}
	res, snap := run()

	refs, ok := snap.SeriesNamed("sys/refs")
	if !ok {
		t.Fatal("sys/refs series missing")
	}
	if refs.Kind != SeriesSum || refs.Width != DefaultWindowWidth {
		t.Fatalf("sys/refs shape = kind %v width %d", refs.Kind, refs.Width)
	}
	if refs.Total() != res.Refs {
		t.Fatalf("windowed refs %d != Results.Refs %d", refs.Total(), res.Refs)
	}
	for _, name := range DirStateSeriesNames {
		sv, ok := snap.SeriesNamed(name)
		if !ok {
			t.Fatalf("census series %s missing", name)
		}
		if sv.Kind != SeriesGauge {
			t.Fatalf("census series %s kind = %v", name, sv.Kind)
		}
	}
	if len(snap.TopBlocks) == 0 {
		t.Fatal("no hot blocks attributed")
	}
	var stat BlockStat = snap.TopBlocks[0]
	if stat.Count == 0 {
		t.Fatalf("top block %+v has zero count", stat)
	}
	for _, fs := range snap.FalseSharing {
		var f FalseShareStat = fs
		_ = f.FalseShared()
	}

	_, snap2 := run()
	merged, err := MergeSnapshots(snap, snap2)
	if err != nil {
		t.Fatal(err)
	}
	mrefs, ok := merged.SeriesNamed("sys/refs")
	if !ok || mrefs.Total() != 2*refs.Total() {
		t.Fatalf("merged sys/refs total = %d, want %d", mrefs.Total(), 2*refs.Total())
	}

	if inv, ok := snap.SeriesNamed("sys/invalidations"); ok {
		storms := DetectStorms(inv, 1, 2)
		for _, st := range storms {
			var s Storm = st
			if s.Value == 0 {
				t.Fatalf("storm with zero count: %+v", s)
			}
		}
	}
}

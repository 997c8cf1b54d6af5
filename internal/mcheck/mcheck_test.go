package mcheck

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"twobit/internal/proto"
	"twobit/internal/system"
)

// TestClosureCounts pins the exact canonical state-space sizes of the
// small exhaustive configurations. A protocol change that alters the
// reachable graph — even without violating any property — shows up here
// first, which is the point: the closure is part of the spec.
func TestClosureCounts(t *testing.T) {
	cases := []struct {
		name                string
		cfg                 Config
		states, edges, rest int
	}{
		{"twobit-2c1b-r1", Config{Protocol: system.TwoBit, Caches: 2, Blocks: 1, Sets: 1, RefsPerProc: 1}, 37, 56, 7},
		{"twobit-2c2b-r2", Config{Protocol: system.TwoBit, Caches: 2, Blocks: 2, Sets: 1, RefsPerProc: 2}, 3886, 8226, 164},
		{"fullmap-2c2b-r2", Config{Protocol: system.FullMap, Caches: 2, Blocks: 2, Sets: 1, RefsPerProc: 2}, 2990, 6742, 103},
		{"fullmap-3c1b-r2", Config{Protocol: system.FullMap, Caches: 3, Blocks: 1, Sets: 1, RefsPerProc: 2}, 4240, 13108, 45},
		// Duplication is full-map's policy over another store: on one
		// block the graphs coincide; on two, the single-command serializer
		// orders commands the per-block one lets overlap.
		{"duplication-2c2b-r2", Config{Protocol: system.Duplication, Caches: 2, Blocks: 2, Sets: 1, RefsPerProc: 2}, 3062, 6842, 103},
		{"duplication-3c1b-r2", Config{Protocol: system.Duplication, Caches: 3, Blocks: 1, Sets: 1, RefsPerProc: 2}, 4240, 13108, 45},
		{"fullmap+e-2c2b-r2", Config{Protocol: system.FullMapExclusive, Caches: 2, Blocks: 2, Sets: 1, RefsPerProc: 2}, 3078, 6458, 142},
		{"fullmap+e-3c1b-r2", Config{Protocol: system.FullMapExclusive, Caches: 3, Blocks: 1, Sets: 1, RefsPerProc: 2}, 3715, 11142, 46},
		{"classical-2c2b-r2", Config{Protocol: system.Classical, Caches: 2, Blocks: 2, Sets: 1, RefsPerProc: 2}, 2359, 4526, 72},
		{"classical-3c1b-r2", Config{Protocol: system.Classical, Caches: 3, Blocks: 1, Sets: 1, RefsPerProc: 2}, 4545, 11902, 41},
		// Software runs under its static partition, which also turns the
		// symmetry reduction off (Config.partitioned).
		{"software-2c2b-r2", Config{Protocol: system.Software, Caches: 2, Blocks: 2, Sets: 1, RefsPerProc: 2}, 658, 1498, 39},
		{"software-3c1b-r2", Config{Protocol: system.Software, Caches: 3, Blocks: 1, Sets: 1, RefsPerProc: 2}, 4430, 14007, 53},
		// The §3.2.5 option-1 controller and the optional clean EJECT.
		{"twobit-single-command-2c2b-r2", Config{Protocol: system.TwoBit, Caches: 2, Blocks: 2, Sets: 1, RefsPerProc: 2, Mode: proto.SingleCommand}, 3990, 8338, 164},
		{"twobit-no-clean-eject-2c2b-r2", Config{Protocol: system.TwoBit, Caches: 2, Blocks: 2, Sets: 1, RefsPerProc: 2, DisableCleanEject: true}, 3436, 7154, 180},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Check(tc.cfg)
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			if res.Violation != nil {
				t.Fatalf("violation: %v", res.Violation)
			}
			if res.Truncated {
				t.Fatal("closure truncated")
			}
			if res.States != tc.states || res.Edges != tc.edges || res.RestStates != tc.rest {
				t.Errorf("%d states, %d edges, %d rest; want %d, %d, %d",
					res.States, res.Edges, res.RestStates, tc.states, tc.edges, tc.rest)
			}
		})
	}
}

// TestSymmetryReductionSound re-explores a configuration with the
// cache-permutation reduction disabled: the verdict must not change, and
// the unreduced graph must be at least as large.
func TestSymmetryReductionSound(t *testing.T) {
	cfg := Config{Protocol: system.TwoBit, Caches: 2, Blocks: 2, Sets: 1, RefsPerProc: 2}
	sym, err := Check(cfg)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	cfg.NoSymmetry = true
	raw, err := Check(cfg)
	if err != nil {
		t.Fatalf("Check (no symmetry): %v", err)
	}
	if sym.Violation != nil || raw.Violation != nil {
		t.Fatalf("violations: sym=%v raw=%v", sym.Violation, raw.Violation)
	}
	if raw.States < sym.States {
		t.Errorf("unreduced graph has %d states, reduced has %d", raw.States, sym.States)
	}
}

// TestBoundedMode verifies MaxStates truncation is reported rather than
// silently passed off as a proof.
func TestBoundedMode(t *testing.T) {
	cfg := Config{Protocol: system.TwoBit, Caches: 2, Blocks: 2, Sets: 1, RefsPerProc: 2, MaxStates: 100}
	res, err := Check(cfg)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !res.Truncated {
		t.Error("MaxStates=100 did not report Truncated")
	}
	if res.States > 101 {
		t.Errorf("states = %d, want ≤ 101", res.States)
	}
}

// TestSeededBugProducesCounterexample injects the deliberate §3.2.3
// defect (a write miss that skips its invalidation) and requires (a) the
// checker refutes a property, (b) the counterexample replays
// step-for-step to the recorded violation, and (c) it survives the codec
// — the acceptance loop of the whole package.
func TestSeededBugProducesCounterexample(t *testing.T) {
	cfg := Config{Protocol: system.TwoBit, Caches: 2, Blocks: 1, Sets: 1, RefsPerProc: 2,
		Hooks: &proto.BugHooks{SkipWriteMissInvalidate: true}}
	res, err := Check(cfg)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if res.Violation == nil {
		t.Fatalf("seeded defect not detected in %d states", res.States)
	}
	if res.Violation.Kind != "stale-read" {
		t.Errorf("violation kind = %q, want stale-read", res.Violation.Kind)
	}
	tr := res.Violation.Trace
	t.Logf("violation %v after %d steps", res.Violation, len(tr.Steps))
	if err := Replay(tr); err != nil {
		t.Errorf("replay: %v", err)
	}
	// Replay holds the recorded verdict too, not just the fingerprints.
	wrong := tr
	wrong.Violation = "swmr: not what happened"
	if err := Replay(wrong); err == nil {
		t.Error("replay accepted a trace whose recorded violation is wrong")
	}
	// The codec must round-trip the counterexample exactly.
	dec, err := DecodeTrace(EncodeTrace(tr))
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	if !reflect.DeepEqual(dec, tr) {
		t.Error("trace did not survive an encode/decode round trip")
	}
}

// TestDefenseEconomyHooks pins two results the checker proved about the
// other seeded defects rather than the result one might expect:
//
//   - Skipping the §3.2.5 MREQUEST queue deletion changes the reachable
//     graph but violates nothing: with the MGRANTED-denial defense in
//     place, the deletion is an economy (it avoids useless regrant
//     traffic), not a correctness requirement.
//   - Skipping stashed-put consumption changes nothing at all: within
//     the checked envelope (up to 3 caches × 2 blocks and 150k+ states)
//     no interleaving ever stashes a put — an EJECT("write")'s put
//     either finds its transaction awaiting data or trails a delivered
//     EJECT. The stash is a defense against orderings the per-pair FIFO
//     network already forbids.
//
// A protocol change that makes either hook start producing violations
// (or start reaching the stash) shows up here.
func TestDefenseEconomyHooks(t *testing.T) {
	base := Config{Protocol: system.TwoBit, Caches: 3, Blocks: 1, Sets: 1, RefsPerProc: 2}
	clean, err := Check(base)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if clean.Violation != nil {
		t.Fatalf("clean closure: %v", clean.Violation)
	}
	if clean.Truncated || clean.States != 19670 || clean.Edges != 60638 || clean.RestStates != 45 {
		t.Fatalf("clean closure: %d states, %d edges, %d rest (truncated %v); want 19670, 60638, 45",
			clean.States, clean.Edges, clean.RestStates, clean.Truncated)
	}

	cfg := base
	cfg.Hooks = &proto.BugHooks{SkipMRequestQueueDelete: true}
	res, err := Check(cfg)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if res.Violation != nil {
		t.Errorf("queue deletion turned out load-bearing: %v", res.Violation)
	}
	if res.States == clean.States {
		t.Errorf("skip-mrequest-queue-delete unreached: %d states with and without", res.States)
	}

	cfg.Hooks = &proto.BugHooks{SkipStashedPutConsume: true}
	res, err = Check(cfg)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if res.Violation != nil {
		t.Errorf("stash skip violated a property: %v", res.Violation)
	}
	if res.States != clean.States {
		t.Errorf("stash path newly reachable: %d states vs %d clean", res.States, clean.States)
	}
}

// drainTo appends to issues the greedy delivery completion: after the
// given issues, repeatedly deliver the first deliverable queue until the
// machine is at rest.
func drainTo(t *testing.T, cfg Config, issues []Action) []Action {
	t.Helper()
	h, err := newMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acts := make([]Action, 0, len(issues))
	for _, a := range issues {
		if err := h.apply(a); err != nil {
			t.Fatalf("apply %v: %v", a, err)
		}
		acts = append(acts, a)
	}
	for {
		opts := h.deliverOptions()
		if len(opts) == 0 {
			return acts
		}
		if err := h.apply(opts[0]); err != nil {
			t.Fatalf("apply %v: %v", opts[0], err)
		}
		acts = append(acts, opts[0])
	}
}

// TestCleanScheduleBridges runs a violation-free schedule through
// TraceOfSchedule and requires Replay to walk the identical fingerprint
// sequence with the oracle silent — healthy runs must replay, not just
// counterexamples. (The schedule has processor 1 write block 1, which
// the software partition reserves for processor 0.)
func TestCleanScheduleBridges(t *testing.T) {
	for _, p := range []system.Protocol{system.TwoBit, system.FullMap, system.FullMapExclusive, system.Classical, system.Duplication} {
		t.Run(p.String(), func(t *testing.T) {
			cfg := Config{Protocol: p, Caches: 2, Blocks: 2, Sets: 1, RefsPerProc: 2}
			acts := drainTo(t, cfg, []Action{
				{Kind: ActIssue, Proc: 0, Write: true, Block: 0},
				{Kind: ActIssue, Proc: 1, Block: 0},
			})
			acts = drainTo(t, cfg, append(acts,
				Action{Kind: ActIssue, Proc: 1, Write: true, Block: 1},
				Action{Kind: ActIssue, Proc: 0, Block: 1}))
			tr, err := TraceOfSchedule(cfg, acts)
			if err != nil {
				t.Fatalf("TraceOfSchedule: %v", err)
			}
			if len(tr.Steps) <= 4 {
				t.Fatalf("schedule drained in %d steps; expected real protocol traffic", len(tr.Steps))
			}
			if err := Replay(tr); err != nil {
				t.Errorf("replay: %v", err)
			}
			tr.Violation = "oracle: not what happened"
			if err := Replay(tr); err == nil {
				t.Error("replay accepted an oracle verdict the oracle never gave")
			}
		})
	}
}

// TestDecodeTraceRejects spot-checks the decoder's strictness.
func TestDecodeTraceRejects(t *testing.T) {
	good := string(EncodeTrace(Trace{
		Cfg:  DefaultConfig(),
		Init: 0x1234,
		Steps: []Step{
			{Act: Action{Kind: ActIssue, Proc: 0, Write: true, Block: 1}, Fp: 0xabc},
			{Act: Action{Kind: ActDeliver, Src: 0, Dst: 2}, Fp: 0xdef},
		},
	}))
	cases := []struct {
		name string
		data string
		want string
	}{
		{"bad-magic", "mcheck-trace v2\n", "not a"},
		{"bad-proc", strings.Replace(good, "issue 0", "issue 9", 1), "out of configured range"},
		{"bad-node", strings.Replace(good, "deliver 0 2", "deliver 0 7", 1), "out of configured range"},
		{"bad-fp", strings.Replace(good, "abc", "0ABC", 1), "fingerprint"},
		{"trailing", good + "extra\n", "trailing"},
		{"truncated", strings.TrimSuffix(good, "\nend\n"), "missing"},
		// Optional lines carry only non-default values, so the default
		// spelled out is non-canonical.
		{"default-mode", strings.Replace(good, "refs 2\n", "refs 2\nmode per-block\n", 1), "bad mode"},
		{"default-clean-eject", strings.Replace(good, "refs 2\n", "refs 2\nclean-eject on\n", 1), "bad clean-eject"},
		{"bus-protocol", strings.Replace(good, "two-bit", "write-once", 1), "snooping bus"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeTrace([]byte(tc.data))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want contains %q", err, tc.want)
			}
		})
	}
}

// TestValidateRejects covers the configuration guard rails.
func TestValidateRejects(t *testing.T) {
	base := DefaultConfig()
	mutate := []func(*Config){
		func(c *Config) { c.Protocol = 7 },
		func(c *Config) { c.Caches = 1 },
		func(c *Config) { c.Caches = 6 },
		func(c *Config) { c.Blocks = 0 },
		func(c *Config) { c.Sets = 3 },
		func(c *Config) { c.RefsPerProc = 0 },
		func(c *Config) { c.Protocol = system.FullMap; c.Hooks = &proto.BugHooks{} },
		func(c *Config) { c.Protocol = system.Duplication; c.Hooks = &proto.BugHooks{} },
		func(c *Config) { c.Protocol = system.Classical; c.Hooks = &proto.BugHooks{} },
		func(c *Config) { c.Mode = 2 },
		func(c *Config) { c.Protocol = system.WriteOnce },
	}
	for i, f := range mutate {
		cfg := base
		f(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	cfg := base
	cfg.Protocol = system.WriteOnce
	if _, err := Check(cfg); !errors.Is(err, system.ErrBusProtocol) {
		t.Errorf("Check(write-once) = %v, want system.ErrBusProtocol", err)
	}
	if err := base.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// TestApplyGuards documents that apply() does not enforce RefsPerProc (the
// explorer's issueOptions does): replaying a hand-built schedule may
// exceed the bound, but never target a busy processor or a block outside
// the space.
func TestApplyGuards(t *testing.T) {
	cfg := Config{Protocol: system.TwoBit, Caches: 2, Blocks: 1, Sets: 1, RefsPerProc: 1}
	h, err := newMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.apply(Action{Kind: ActIssue, Proc: 0, Block: 5}); err == nil {
		t.Error("issue beyond block space accepted")
	}
	if err := h.apply(Action{Kind: ActIssue, Proc: 0, Write: true, Block: 0}); err != nil {
		t.Fatalf("issue: %v", err)
	}
	if err := h.apply(Action{Kind: ActIssue, Proc: 0, Block: 0}); err == nil {
		t.Error("issue to busy processor accepted")
	}
	if err := h.apply(Action{Kind: ActDeliver, Src: 1, Dst: 0}); err == nil {
		t.Error("delivery from an empty queue accepted")
	}
}

func TestCheckLivelockFreedom(t *testing.T) {
	// The progress check is part of every closure above; this pins that
	// rest states exist and are reported for the tiniest configuration.
	res, err := Check(Config{Protocol: system.TwoBit, Caches: 2, Blocks: 1, Sets: 1, RefsPerProc: 1})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if res.RestStates == 0 || res.Violation != nil {
		t.Fatalf("rest=%d violation=%v", res.RestStates, res.Violation)
	}
}

var benchSink Result

// BenchmarkMCheck measures exhaustive-closure throughput (states/s) on
// the default configuration, for ad-hoc -bench use; no stamped baseline
// is kept.
func BenchmarkMCheck(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		res, err := Check(cfg)
		if err != nil || res.Violation != nil {
			b.Fatalf("res=%+v err=%v", res, err)
		}
		benchSink = res
	}
	b.ReportMetric(float64(benchSink.States)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
}

func TestIssueVersionParity(t *testing.T) {
	// Fingerprints carry raw write versions, which the machine assigns
	// from one global counter per write at issue. Pin the discipline:
	// interleaved writes from both processors must replay exactly.
	cfg := Config{Protocol: system.TwoBit, Caches: 2, Blocks: 2, Sets: 1, RefsPerProc: 3}
	acts := drainTo(t, cfg, []Action{
		{Kind: ActIssue, Proc: 0, Write: true, Block: 0},
		{Kind: ActIssue, Proc: 1, Write: true, Block: 1},
	})
	acts = drainTo(t, cfg, append(acts,
		Action{Kind: ActIssue, Proc: 1, Write: true, Block: 0},
		Action{Kind: ActIssue, Proc: 0, Write: true, Block: 1}))
	tr, err := TraceOfSchedule(cfg, acts)
	if err != nil {
		t.Fatalf("TraceOfSchedule: %v", err)
	}
	if err := Replay(tr); err != nil {
		t.Errorf("replay: %v", err)
	}
}

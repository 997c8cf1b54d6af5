package system

import (
	"errors"
	"strings"
	"testing"

	"twobit/internal/cache"
	"twobit/internal/proto"
	"twobit/internal/rng"
	"twobit/internal/sim"
	"twobit/internal/workload"
)

// allProtocols lists every protocol's default config, by name.
func allProtocols() map[string]Config {
	out := make(map[string]Config, len(protocols))
	for p := range protocols {
		cfg := DefaultConfig(Protocol(p), 4)
		cfg.Seed = 42
		out[cfg.Protocol.String()] = cfg
	}
	return out
}

// TestDefaultConfigValidates: the default is runnable as it stands under
// every protocol, so no caller patches Modules or Net by protocol.
func TestDefaultConfigValidates(t *testing.T) {
	for name, cfg := range allProtocols() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p, err := ParseProtocol(name); err != nil || p != cfg.Protocol {
			t.Errorf("ParseProtocol(%q) = %v, %v", name, p, err)
		}
	}
	if len(protocols) != int(Software)+1 {
		t.Errorf("the assembly table has %d rows, want one per Protocol constant (%d)", len(protocols), int(Software)+1)
	}
}

// TestMachineRunsOnce: a second Run on one machine is refused by name
// before anything is issued, rather than reported as a deadlock.
func TestMachineRunsOnce(t *testing.T) {
	m, err := New(DefaultConfig(TwoBit, 2), sharingGen(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(200); err != nil {
		t.Fatal(err)
	}
	events := m.Kernel().Processed()
	if _, err := m.Run(200); !errors.Is(err, ErrMachineRan) {
		t.Fatalf("second Run returned %v, want ErrMachineRan", err)
	}
	if m.Kernel().Processed() != events || m.Kernel().Pending() != 0 {
		t.Fatal("the refused Run scheduled events")
	}
}

func sharingGen(procs int, seed uint64) workload.Generator {
	return workload.NewSharedPrivate(workload.SharedPrivateConfig{
		Procs: procs, SharedBlocks: 16, Q: 0.1, W: 0.3,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 24, ColdBlocks: 128, Seed: seed,
	})
}

// TestAllProtocolsCoherentUnderSharing is the flagship integration test:
// every protocol must satisfy the linearizability oracle and its
// quiescence invariants under a write-sharing workload.
func TestAllProtocolsCoherentUnderSharing(t *testing.T) {
	for name, cfg := range allProtocols() {
		t.Run(name, func(t *testing.T) {
			m, err := New(cfg, sharingGen(cfg.Procs, 11))
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(2000)
			if err != nil {
				t.Fatal(err)
			}
			if res.Refs != 8000 {
				t.Fatalf("completed %d refs, want 8000", res.Refs)
			}
			if res.Cycles <= 0 {
				t.Fatal("no simulated time elapsed")
			}
		})
	}
}

// TestAllProtocolsAcrossSeeds hammers each protocol with several seeds on
// an intensely shared workload (every block shared, heavy writes).
func TestAllProtocolsAcrossSeeds(t *testing.T) {
	for name, cfg := range allProtocols() {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := cfg
			cfg.Seed = seed
			gen := workload.NewSharedPrivate(workload.SharedPrivateConfig{
				Procs: cfg.Procs, SharedBlocks: 8, Q: 0.5, W: 0.5,
				PrivateHit: 0.8, PrivateWrite: 0.5, HotBlocks: 8, ColdBlocks: 32, Seed: seed * 13,
			})
			m, err := New(cfg, gen)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if _, err := m.Run(1500); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}

// TestEventsStayOnTheKernelRing holds the traffic assumption the kernel's
// two-level queue is built on: at the default latencies, on both networks
// the benchmark uses, under 1% of any protocol's events are scheduled at or
// beyond the ring's horizon and pay for the overflow heap. A latency or
// network change that moves the workload off the ring fails here, not in a
// benchmark.
func TestEventsStayOnTheKernelRing(t *testing.T) {
	for name, cfg := range allProtocols() {
		for _, nk := range []NetKind{CrossbarNet, BusNet} {
			if cfg.Protocol == WriteOnce && nk != BusNet {
				continue
			}
			t.Run(name+"/"+nk.String(), func(t *testing.T) {
				cfg := cfg
				cfg.Net = nk
				m, err := New(cfg, sharingGen(cfg.Procs, 11))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(2000); err != nil {
					t.Fatal(err)
				}
				k := m.Kernel()
				far, all := k.FarScheduled(), k.Processed()+uint64(k.Pending())
				if all == 0 || far*100 >= all {
					t.Fatalf("%d of %d scheduled events took the overflow heap, want < 1%%", far, all)
				}
			})
		}
	}
}

// TestKernelWorkloads runs the structured kernels through the two
// directory protocols.
func TestKernelWorkloads(t *testing.T) {
	gens := map[string]func() workload.Generator{
		"matmul":   func() workload.Generator { return workload.NewMatMul(4, 16, 16, 8) },
		"prodcons": func() workload.Generator { return workload.NewProducerConsumer(4, 8) },
		"locks":    func() workload.Generator { return workload.NewLockContention(4, 4, 5) },
		"migration": func() workload.Generator {
			return workload.NewMigration(4, 4, 16, 100, 5)
		},
	}
	for gname, mkGen := range gens {
		for _, p := range []Protocol{TwoBit, FullMap} {
			t.Run(gname+"/"+p.String(), func(t *testing.T) {
				cfg := DefaultConfig(p, 4)
				m, err := New(cfg, mkGen())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(2000); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestTwoBitBroadcastsExceedFullMap verifies the paper's core tradeoff:
// under actual sharing, the two-bit scheme's caches receive more commands
// than the full map's (which sends only directed, necessary commands).
func TestTwoBitBroadcastsExceedFullMap(t *testing.T) {
	run := func(p Protocol) Results {
		cfg := DefaultConfig(p, 8)
		m, err := New(cfg, sharingGen(8, 3))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(3000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	two := run(TwoBit)
	full := run(FullMap)
	if two.Broadcasts == 0 {
		t.Fatal("two-bit run produced no broadcasts despite sharing")
	}
	if full.Broadcasts != 0 {
		t.Fatalf("full map broadcast %d times; it must never broadcast", full.Broadcasts)
	}
	if two.CommandsPerCachePerRef <= full.CommandsPerCachePerRef {
		t.Fatalf("two-bit commands/ref %.4f not above full map %.4f",
			two.CommandsPerCachePerRef, full.CommandsPerCachePerRef)
	}
	if two.UselessPerCachePerRef <= 0 {
		t.Fatal("two-bit run recorded no useless commands")
	}
	// The full map never sends a command to a cache without a copy...
	// except the benign Present*-analog: it doesn't have one. Check ~0.
	if full.UselessPerCachePerRef > 0.0005 {
		t.Fatalf("full map useless commands/ref = %.5f, want ≈ 0", full.UselessPerCachePerRef)
	}
}

// TestNoSharingNoOverhead verifies the other half of the paper's bet: with
// no write sharing at all, the two-bit scheme sends (almost) no broadcasts.
func TestNoSharingNoOverhead(t *testing.T) {
	gen := workload.NewSharedPrivate(workload.SharedPrivateConfig{
		Procs: 8, SharedBlocks: 16, Q: 0, W: 0,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 24, ColdBlocks: 64, Seed: 4,
	})
	cfg := DefaultConfig(TwoBit, 8)
	m, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Broadcasts != 0 {
		t.Fatalf("two-bit broadcast %d times with zero sharing", res.Broadcasts)
	}
	if res.CommandsPerCachePerRef != 0 {
		t.Fatalf("commands/ref = %v with zero sharing", res.CommandsPerCachePerRef)
	}
}

// TestTranslationBufferReducesBroadcasts checks the §4.4 claim: with a
// translation buffer large enough to hit often, broadcast traffic drops
// substantially versus the unmodified scheme.
func TestTranslationBufferReducesBroadcasts(t *testing.T) {
	run := func(tbSize int) Results {
		cfg := DefaultConfig(TwoBit, 8)
		cfg.TranslationBufferSize = tbSize
		m, err := New(cfg, sharingGen(8, 7))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(3000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(0)
	buffered := run(256)
	if buffered.TBHitRatio < 0.5 {
		t.Fatalf("TB hit ratio only %.3f", buffered.TBHitRatio)
	}
	if buffered.Broadcasts >= plain.Broadcasts {
		t.Fatalf("TB did not reduce broadcasts: %d vs %d", buffered.Broadcasts, plain.Broadcasts)
	}
	if buffered.CommandsPerCachePerRef >= plain.CommandsPerCachePerRef {
		t.Fatalf("TB did not reduce commands/ref: %.4f vs %.4f",
			buffered.CommandsPerCachePerRef, plain.CommandsPerCachePerRef)
	}
}

// TestDuplicateDirectoryReducesStolenCycles checks §4.4 enhancement 1.
func TestDuplicateDirectoryReducesStolenCycles(t *testing.T) {
	run := func(dup bool) Results {
		cfg := DefaultConfig(TwoBit, 8)
		cfg.DuplicateDirectory = dup
		m, err := New(cfg, sharingGen(8, 9))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(3000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	without := run(false)
	with := run(true)
	if with.StolenCyclesPerRef >= without.StolenCyclesPerRef {
		t.Fatalf("duplicate directory did not reduce stolen cycles: %.4f vs %.4f",
			with.StolenCyclesPerRef, without.StolenCyclesPerRef)
	}
}

// TestExclusiveStateReducesMRequests checks the Yen–Fu §2.4.3 claim:
// writes to unshared blocks proceed without consulting the global table.
func TestExclusiveStateReducesMRequests(t *testing.T) {
	run := func(p Protocol) Results {
		cfg := DefaultConfig(p, 4)
		gen := workload.NewSharedPrivate(workload.SharedPrivateConfig{
			Procs: 4, SharedBlocks: 16, Q: 0.02, W: 0.3,
			PrivateHit: 0.9, PrivateWrite: 0.5, HotBlocks: 24, ColdBlocks: 64, Seed: 6,
		})
		m, err := New(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(3000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(FullMap)
	excl := run(FullMapExclusive)
	mreq := func(r Results) uint64 {
		var total uint64
		for _, c := range r.Cache {
			total += c.MRequestsSent.Value()
		}
		return total
	}
	if mreq(excl) >= mreq(plain) {
		t.Fatalf("exclusive state did not reduce MREQUESTs: %d vs %d", mreq(excl), mreq(plain))
	}
	var silent uint64
	for _, c := range excl.Cache {
		silent += c.ExclusiveWrites.Value()
	}
	if silent == 0 {
		t.Fatal("no silent exclusive upgrades occurred")
	}
}

// TestSingleCommandModeSlower verifies §3.2.5's prediction that a
// controller restricted to one command at a time degrades performance.
func TestSingleCommandModeSlower(t *testing.T) {
	run := func(mode proto.ConcurrencyMode) Results {
		cfg := DefaultConfig(TwoBit, 8)
		cfg.Mode = mode
		cfg.Modules = 1 // one controller serving everything sharpens the contrast
		m, err := New(cfg, sharingGen(8, 5))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(1500)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	perBlock := run(proto.PerBlock)
	single := run(proto.SingleCommand)
	if single.Cycles <= perBlock.Cycles {
		t.Fatalf("single-command mode not slower: %d vs %d cycles", single.Cycles, perBlock.Cycles)
	}
}

// TestNetworksAllCoherent runs the two-bit protocol over all three
// interconnection networks.
func TestNetworksAllCoherent(t *testing.T) {
	for _, nk := range []NetKind{CrossbarNet, BusNet, OmegaNet} {
		t.Run(nk.String(), func(t *testing.T) {
			cfg := DefaultConfig(TwoBit, 4)
			cfg.Net = nk
			m, err := New(cfg, sharingGen(4, 8))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(1500); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDisableCleanEjectStillCoherent exercises the paper's note that the
// protocols remain correct without EJECT(·,·,"read").
func TestDisableCleanEjectStillCoherent(t *testing.T) {
	for _, p := range []Protocol{TwoBit, FullMap} {
		cfg := DefaultConfig(p, 4)
		cfg.DisableCleanEject = true
		m, err := New(cfg, sharingGen(4, 10))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(2000); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
	}
}

// TestCleanEjectReducesBroadcasts verifies the paper's rationale for
// keeping Present1: clean ejects reduce the number of broadcasts.
func TestCleanEjectReducesBroadcasts(t *testing.T) {
	run := func(disable bool) Results {
		cfg := DefaultConfig(TwoBit, 8)
		cfg.DisableCleanEject = disable
		// The reclamation to Absent needs the §4.4 translation buffer to
		// validate ejects against the exact owner set; without it clean
		// ejects only degrade Present1 to Present* (see core.Controller).
		cfg.TranslationBufferSize = 64
		// Small direct-mapped caches force evictions of shared blocks.
		cfg.CacheSets = 16
		cfg.CacheAssoc = 1
		gen := workload.NewSharedPrivate(workload.SharedPrivateConfig{
			Procs: 8, SharedBlocks: 16, Q: 0.3, W: 0.3,
			PrivateHit: 0.8, PrivateWrite: 0.3, HotBlocks: 8, ColdBlocks: 32, Seed: 12,
		})
		m, err := New(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(2500)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	withEject := run(false)
	withoutEject := run(true)
	if withEject.Broadcasts >= withoutEject.Broadcasts {
		t.Fatalf("clean ejects did not reduce broadcasts: %d vs %d",
			withEject.Broadcasts, withoutEject.Broadcasts)
	}
}

// TestDeterminism: identical configurations yield identical results.
func TestDeterminism(t *testing.T) {
	run := func() Results {
		cfg := DefaultConfig(TwoBit, 4)
		m, err := New(cfg, sharingGen(4, 21))
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
	if a.Cycles != b.Cycles || a.Net.Messages != b.Net.Messages ||
		a.CommandsPerCachePerRef != b.CommandsPerCachePerRef {
		t.Fatalf("non-deterministic results:\n%v\n%v", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig(TwoBit, 0)
	if _, err := New(bad, sharingGen(1, 1)); err == nil {
		t.Error("Procs=0 accepted")
	}
	bad = DefaultConfig(WriteOnce, 4)
	bad.Net = CrossbarNet
	if _, err := New(bad, sharingGen(4, 1)); err == nil {
		t.Error("write-once on crossbar accepted")
	}
	bad = DefaultConfig(Duplication, 4)
	bad.Modules = 4
	if _, err := New(bad, sharingGen(4, 1)); err == nil {
		t.Error("duplication with 4 modules accepted")
	}
	bad = DefaultConfig(FullMap, 4)
	bad.TranslationBufferSize = 8
	if _, err := New(bad, sharingGen(4, 1)); err == nil {
		t.Error("translation buffer on full map accepted")
	}
	bad = DefaultConfig(TwoBit, 65)
	if _, err := New(bad, sharingGen(65, 1)); err == nil {
		t.Error("65 processors accepted")
	}
}

func TestResultsString(t *testing.T) {
	cfg := DefaultConfig(TwoBit, 4)
	m, err := New(cfg, sharingGen(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	for _, want := range []string{"two-bit", "refs", "miss ratio", "broadcasts"} {
		if !strings.Contains(s, want) {
			t.Errorf("Results.String() = %q missing %q", s, want)
		}
	}
}

func TestProtocolAndNetKindStrings(t *testing.T) {
	if TwoBit.String() != "two-bit" || Protocol(99).String() == "" {
		t.Error("protocol names wrong")
	}
	if CrossbarNet.String() != "crossbar" || NetKind(99).String() == "" {
		t.Error("net kind names wrong")
	}
}

// TestPropertyRandomConfigurations fuzzes machine shapes: random protocol,
// processor count, module count, cache geometry, network, and jitter. No
// combination may deadlock or violate coherence.
func TestPropertyRandomConfigurations(t *testing.T) {
	r := rng.New(2026, 5)
	for trial := 0; trial < 40; trial++ {
		procs := r.Intn(10) + 1
		cfg := DefaultConfig(Protocol(r.Intn(7)), procs)
		cfg.Seed = uint64(trial) + 1
		cfg.Modules = r.Intn(4) + 1
		cfg.CacheSets = 1 << r.Intn(4)
		cfg.CacheAssoc = r.Intn(3) + 1
		cfg.CachePolicy = cache.ReplacementPolicy(r.Intn(3))
		switch cfg.Protocol {
		case Duplication:
			cfg.Modules = 1
		case WriteOnce:
			cfg.Net = BusNet
		default:
			if r.Bool(0.3) {
				cfg.Net = OmegaNet
			} else if r.Bool(0.4) {
				cfg.NetJitter = sim.Time(r.Intn(20))
			}
		}
		if r.Bool(0.3) && (cfg.Protocol == TwoBit || cfg.Protocol == FullMap) {
			cfg.DMA = DMAConfig{Devices: r.Intn(3) + 1, Blocks: 8, WriteFrac: 0.5}
		}
		if cfg.Protocol == TwoBit && r.Bool(0.4) {
			cfg.TranslationBufferSize = 1 << r.Intn(7)
		}
		if r.Bool(0.2) {
			cfg.DisableCleanEject = true
		}
		if r.Bool(0.2) {
			cfg.Mode = proto.SingleCommand
		}
		gen := workload.NewSharedPrivate(workload.SharedPrivateConfig{
			Procs: procs, SharedBlocks: r.Intn(12) + 4,
			Q: r.Float64() * 0.6, W: r.Float64(),
			PrivateHit: 0.5 + r.Float64()*0.5, PrivateWrite: r.Float64(),
			HotBlocks: r.Intn(8) + 2, ColdBlocks: r.Intn(24) + 8,
			Seed: uint64(trial)*7 + 1,
		})
		m, err := New(cfg, gen)
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, cfg, err)
		}
		if _, err := m.Run(600); err != nil {
			t.Fatalf("trial %d (protocol=%v procs=%d net=%v jitter=%d mode=%v dma=%d): %v",
				trial, cfg.Protocol, procs, cfg.Net, cfg.NetJitter, cfg.Mode, cfg.DMA.Devices, err)
		}
	}
}

// TestTraceWriterLogsMessages covers the network trace decorator.
func TestTraceWriterLogsMessages(t *testing.T) {
	var buf strings.Builder
	cfg := DefaultConfig(TwoBit, 2)
	cfg.TraceWriter = &buf
	m, err := New(cfg, sharingGen(2, 14))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"REQUEST", "get", "C0 ->", "K0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out[:min(400, len(out))])
		}
	}
}

// TestTraceWriterWithWriteOnce covers unwrapBus through the tracer: the
// write-once builder must find the concrete bus behind the decorator.
func TestTraceWriterWithWriteOnce(t *testing.T) {
	var buf strings.Builder
	cfg := DefaultConfig(WriteOnce, 2)
	cfg.Net = BusNet
	cfg.TraceWriter = &buf
	m, err := New(cfg, sharingGen(2, 15))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(300); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

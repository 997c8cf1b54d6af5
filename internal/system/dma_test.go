package system

import (
	"testing"

	"twobit/internal/workload"
)

func dmaCfg(p Protocol, procs, devices int) Config {
	cfg := DefaultConfig(p, procs)
	cfg.DMA = DMAConfig{Devices: devices, Blocks: 16, WriteFrac: 0.5}
	return cfg
}

// TestDMACoherentWithProcessors runs DMA devices against caching
// processors on the same shared blocks: device reads must see the latest
// committed values and device writes must never be overwritten by stale
// write-backs.
func TestDMACoherentWithProcessors(t *testing.T) {
	for _, p := range []Protocol{TwoBit, FullMap, FullMapExclusive} {
		t.Run(p.String(), func(t *testing.T) {
			cfg := dmaCfg(p, 4, 2)
			m, err := New(cfg, sharingGen(4, 17))
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(3000)
			if err != nil {
				t.Fatal(err)
			}
			var reads, writes uint64
			for _, c := range res.Ctrl {
				reads += c.DMAReads.Value()
				writes += c.DMAWrites.Value()
			}
			if reads == 0 || writes == 0 {
				t.Fatalf("DMA ops not serviced: %d reads %d writes", reads, writes)
			}
		})
	}
}

// TestDMAWritesInvalidateCaches: after a DMA write, cached copies of the
// block must be gone (checked by the quiescence invariants) and processor
// reads must observe the device's data (checked by the oracle). Heavy
// overlap maximizes the interaction.
func TestDMAWritesInvalidateCaches(t *testing.T) {
	cfg := dmaCfg(TwoBit, 6, 3)
	cfg.CacheSets = 8
	cfg.CacheAssoc = 1
	gen := workload.NewSharedPrivate(workload.SharedPrivateConfig{
		Procs: 6, SharedBlocks: 16, Q: 0.5, W: 0.4,
		PrivateHit: 0.8, PrivateWrite: 0.4, HotBlocks: 8, ColdBlocks: 16, Seed: 21,
	})
	m, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(3000); err != nil {
		t.Fatal(err)
	}
}

// TestDMAUnderJitter combines I/O with the reordering stress.
func TestDMAUnderJitter(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := dmaCfg(TwoBit, 4, 2)
		cfg.NetJitter = 15
		cfg.Seed = seed
		m, err := New(cfg, sharingGen(4, seed*31))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(2000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestDMARejectedForUnsupportedProtocols checks the validation.
func TestDMARejectedForUnsupportedProtocols(t *testing.T) {
	for _, p := range []Protocol{Classical, Software, WriteOnce, Duplication} {
		if _, err := New(dmaCfg(p, 4, 1), sharingGen(4, 1)); err == nil {
			t.Errorf("%v accepted DMA devices", p)
		}
	}
	bad := dmaCfg(TwoBit, 4, 1)
	bad.DMA.WriteFrac = 2
	if _, err := New(bad, sharingGen(4, 1)); err == nil {
		t.Error("WriteFrac > 1 accepted")
	}
}

// TestDMAOnlyMachine: devices with no processor traffic still work (pure
// I/O through the coherence controller).
func TestDMAOnlyMachine(t *testing.T) {
	cfg := dmaCfg(TwoBit, 1, 4)
	cfg.DMA.WriteFrac = 0.7
	m, err := New(cfg, sharingGen(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(2000); err != nil {
		t.Fatal(err)
	}
}

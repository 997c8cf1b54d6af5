package livesim

import (
	"sync/atomic"
	"testing"

	"twobit/internal/addr"
	"twobit/internal/rng"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{Procs: 2, Modules: 1, CacheBlocks: 4, Blocks: 8}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{Procs: 0, Modules: 1, CacheBlocks: 4, Blocks: 8}).Validate(); err == nil {
		t.Fatal("Procs=0 accepted")
	}
	if err := (Config{Procs: 2, Modules: 1, CacheBlocks: 4}).Validate(); err == nil {
		t.Fatal("Blocks=0 accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted zero config")
	}
}

// TestRandomSharingCoherent runs a heavily shared random workload on real
// goroutines; the oracle and quiescent invariants must hold. Run with
// -race to validate the synchronization structure.
func TestRandomSharingCoherent(t *testing.T) {
	m, err := New(Config{Procs: 8, Modules: 2, CacheBlocks: 8, Blocks: 12})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(func(proc int, access func(addr.Ref) uint64) {
		r := rng.New(99, uint64(proc)+1)
		for i := 0; i < 2000; i++ {
			ref := addr.Ref{
				Block: addr.Block(r.Intn(12)),
				Write: r.Bool(0.4),
			}
			access(ref)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAccessBeyondSpaceIsAViolation: a reference outside the Blocks the
// oracle was sized for fails Run by name instead of panicking, and the
// processor goes on.
func TestAccessBeyondSpaceIsAViolation(t *testing.T) {
	m, err := New(Config{Procs: 1, Modules: 1, CacheBlocks: 2, Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(func(proc int, access func(addr.Ref) uint64) {
		access(addr.Ref{Block: 4, Write: true})
		access(addr.Ref{Block: 3, Write: true})
	})
	const want = "livesim: 1 violations, first: proc 0: access to blk#4 beyond space of 4 blocks"
	if err == nil || err.Error() != want {
		t.Fatalf("Run = %v, want %q", err, want)
	}
}

// TestMRequestStorm hammers the §3.2.5 scenario: every processor
// read-then-writes the same single block, maximizing racing MREQUESTs.
func TestMRequestStorm(t *testing.T) {
	m, err := New(Config{Procs: 8, Modules: 1, CacheBlocks: 4, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(func(proc int, access func(addr.Ref) uint64) {
		for i := 0; i < 1000; i++ {
			access(addr.Ref{Block: 1})              // read: load the block
			access(addr.Ref{Block: 1, Write: true}) // write hit → MREQUEST
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEvictionChurn forces continuous replacement (tiny caches, many
// blocks) so EJECT/BROADQUERY races get exercised.
func TestEvictionChurn(t *testing.T) {
	m, err := New(Config{Procs: 4, Modules: 2, CacheBlocks: 2, Blocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(func(proc int, access func(addr.Ref) uint64) {
		r := rng.New(7, uint64(proc)+10)
		for i := 0; i < 2000; i++ {
			access(addr.Ref{Block: addr.Block(r.Intn(16)), Write: r.Bool(0.5)})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadsObserveWrites checks end-to-end dataflow: a producer writes
// increasing versions; consumers must observe a non-decreasing sequence.
func TestReadsObserveWrites(t *testing.T) {
	m, err := New(Config{Procs: 4, Modules: 1, CacheBlocks: 4, Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	var maxSeen [4]uint64
	err = m.Run(func(proc int, access func(addr.Ref) uint64) {
		if proc == 0 {
			for i := 0; i < 3000; i++ {
				access(addr.Ref{Block: 2, Write: true})
			}
			return
		}
		var last uint64
		for i := 0; i < 3000; i++ {
			v := access(addr.Ref{Block: 2})
			if v < last {
				t.Errorf("proc %d: version went backwards: %d after %d", proc, v, last)
				return
			}
			last = v
			atomic.StoreUint64(&maxSeen[proc], v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	saw := false
	for p := 1; p < 4; p++ {
		if atomic.LoadUint64(&maxSeen[p]) > 0 {
			saw = true
		}
	}
	if !saw {
		t.Fatal("no consumer ever observed a written version")
	}
}

// TestSingleProcessor sanity-checks the degenerate machine.
func TestSingleProcessor(t *testing.T) {
	m, err := New(Config{Procs: 1, Modules: 1, CacheBlocks: 2, Blocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(func(proc int, access func(addr.Ref) uint64) {
		access(addr.Ref{Block: 0, Write: true})
		if v := access(addr.Ref{Block: 0}); v == 0 {
			t.Error("read did not observe own write")
		}
		// Evict block 0 (capacity 2, touch 2 more blocks), then re-read.
		access(addr.Ref{Block: 1})
		access(addr.Ref{Block: 2})
		if v := access(addr.Ref{Block: 0}); v == 0 {
			t.Error("write-back lost the value")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMixedWorkloadLong is a longer soak across blocks and operations.
func TestMixedWorkloadLong(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	m, err := New(Config{Procs: 12, Modules: 3, CacheBlocks: 6, Blocks: 28})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(func(proc int, access func(addr.Ref) uint64) {
		r := rng.New(55, uint64(proc)+40)
		for i := 0; i < 4000; i++ {
			switch {
			case r.Bool(0.2): // lock-style read-modify-write
				b := addr.Block(r.Intn(4))
				access(addr.Ref{Block: b})
				access(addr.Ref{Block: b, Write: true})
			case r.Bool(0.5):
				access(addr.Ref{Block: addr.Block(4 + r.Intn(12)), Write: r.Bool(0.4)})
			default:
				access(addr.Ref{Block: addr.Block(16 + proc), Write: r.Bool(0.3)})
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLiveThroughput measures the goroutine runtime's reference
// throughput, for comparison with the event-driven simulator's
// BenchmarkSimulatorThroughput.
func BenchmarkLiveThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := New(Config{Procs: 8, Modules: 2, CacheBlocks: 8, Blocks: 12})
		if err != nil {
			b.Fatal(err)
		}
		err = m.Run(func(proc int, access func(addr.Ref) uint64) {
			r := rng.New(9, uint64(proc)+1)
			for j := 0; j < 2000; j++ {
				access(addr.Ref{Block: addr.Block(r.Intn(12)), Write: r.Bool(0.3)})
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(8*2000*b.N)/b.Elapsed().Seconds(), "refs/s")
}

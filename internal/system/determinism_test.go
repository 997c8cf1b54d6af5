package system

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// runForHash executes one seeded simulation and returns the results plus
// an FNV-1a hash of the complete message trace.
func runForHash(t *testing.T, cfg Config, refs int) (Results, uint64) {
	t.Helper()
	h := fnv.New64a()
	cfg.TraceWriter = h
	m, err := New(cfg, sharingGen(cfg.Procs, 7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(refs)
	if err != nil {
		t.Fatal(err)
	}
	return res, h.Sum64()
}

// runOnRunner executes one seeded simulation through r and returns the
// stable results encoding plus a trace hash.
func runOnRunner(t *testing.T, r *Runner, cfg Config, refs int) ([]byte, uint64) {
	t.Helper()
	h := fnv.New64a()
	cfg.TraceWriter = h
	res, err := r.Run(cfg, sharingGen(cfg.Procs, 7), refs)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := r.EncodeStable(res)
	if err != nil {
		t.Fatal(err)
	}
	return enc, h.Sum64()
}

// TestKernelResetReuse pins the Reset/reuse contract the pooled event
// storage introduces: two back-to-back simulations through one Runner —
// the second scheduling into kernel event storage the first already grew
// and used, on the first one's traced machine with a new trace writer —
// must produce results and traces byte-identical to the same simulation
// on a fresh Runner. Any state leaking through the reused backing array
// (a stale sequence counter, a surviving event, a non-zero clock) or the
// trace wrapper shows up here.
func TestKernelResetReuse(t *testing.T) {
	cfg := DefaultConfig(TwoBit, 4)
	cfg.Seed = 42

	fresh, freshHash := runOnRunner(t, NewRunner(), cfg, 800)

	r := NewRunner()
	first, firstHash := runOnRunner(t, r, cfg, 800)
	if string(first) != string(fresh) || firstHash != freshHash {
		t.Fatal("first run on the shared Runner differs from the fresh-Runner run")
	}
	second, secondHash := runOnRunner(t, r, cfg, 800)
	if string(second) != string(fresh) {
		t.Errorf("second run on the shared Runner: results encoding differs from the fresh-Runner run")
	}
	if secondHash != freshHash {
		t.Errorf("second run on the shared Runner: trace hash %#x, fresh Runner %#x", secondHash, freshHash)
	}
	if n := r.PooledMachines(); n != 1 {
		t.Errorf("two traced runs of one shape pooled %d machines, want 1", n)
	}
}

// TestRunsAreReproducible is the runtime counterpart of the static
// determinism analyzer in internal/lint: the same seeded configuration
// run twice must produce bit-identical statistics and an identical
// message trace, message for message. Any wall-clock dependence, global
// randomness, goroutine interleaving or map-order leak in the event loop
// shows up here as a hash mismatch.
func TestRunsAreReproducible(t *testing.T) {
	cases := allProtocols()
	jittered := DefaultConfig(TwoBit, 4)
	jittered.Seed = 42
	jittered.NetJitter = 2 // seeded jitter must replay identically too
	cases["two-bit+jitter"] = jittered

	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			r1, h1 := runForHash(t, cfg, 1200)
			r2, h2 := runForHash(t, cfg, 1200)
			if h1 != h2 {
				t.Errorf("trace hashes differ across identical runs: %#x vs %#x", h1, h2)
			}
			if a, b := fmt.Sprintf("%+v", r1), fmt.Sprintf("%+v", r2); a != b {
				t.Errorf("results differ across identical runs:\n  first:  %s\n  second: %s", a, b)
			}
		})
	}
}

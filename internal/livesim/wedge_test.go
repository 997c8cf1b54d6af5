package livesim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"twobit/internal/addr"
	"twobit/internal/rng"
)

// TestDroppedBroadInvWedges seeds the defect that used to hang Run: every
// cache drops BROADINV, so once the §3.2.5 deletion removes a cache's
// queued MREQUEST, that cache's processor waits for a grant nothing will
// send. Run must return ErrWedged naming the waiting caches, and release
// the parked processors, instead of hanging until the test times out.
// On TestRandomSharingCoherent's workload the machine wedges on nearly
// every run; a run that does not fails Run on its stale copies instead,
// so the test tries up to ten.
func TestDroppedBroadInvWedges(t *testing.T) {
	before := runtime.NumGoroutine()
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		var m *Machine
		m, err = New(Config{Procs: 8, Modules: 2, CacheBlocks: 8, Blocks: 12})
		if err != nil {
			t.Fatal(err)
		}
		m.dropBroadInv = true
		err = m.Run(func(proc int, access func(addr.Ref) uint64) {
			r := rng.New(99, uint64(proc)+1)
			for i := 0; i < 2000; i++ {
				access(addr.Ref{Block: addr.Block(r.Intn(12)), Write: r.Bool(0.4)})
			}
		})
		if errors.Is(err, ErrWedged) {
			break
		}
	}
	if !errors.Is(err, ErrWedged) {
		t.Fatalf("Run = %v, want ErrWedged", err)
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "livesim: machine wedged: cache ") ||
		!strings.Contains(msg, " waits on blk#") || !strings.Contains(msg, ", controller ") {
		t.Fatalf("wedge error does not name the waiting caches: %q", msg)
	}
	noneLeft(t, before)
}

// TestDroppedMAckWedges seeds a wedge that leaves messages in flight:
// every cache withholds its MACK(true), so each granted MREQUEST leaves
// its controller's transaction open for good, and every command that
// controller receives after it is deferred, still in flight, so the
// in-flight count alone never reaches zero. Those commands count as
// held, so Run must return ErrWedged naming the waiting caches and the
// controller's open MREQUEST, and release the parked processors.
func TestDroppedMAckWedges(t *testing.T) {
	before := runtime.NumGoroutine()
	m, err := New(Config{Procs: 8, Modules: 2, CacheBlocks: 8, Blocks: 12})
	if err != nil {
		t.Fatal(err)
	}
	m.dropMAck = true
	err = m.Run(func(proc int, access func(addr.Ref) uint64) {
		r := rng.New(99, uint64(proc)+1)
		for i := 0; i < 2000; i++ {
			access(addr.Ref{Block: addr.Block(r.Intn(12)), Write: r.Bool(0.4)})
		}
	})
	if !errors.Is(err, ErrWedged) {
		t.Fatalf("Run = %v, want ErrWedged", err)
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "livesim: machine wedged: cache ") ||
		!strings.Contains(msg, "MREQUEST") || !strings.Contains(msg, " holds ") {
		t.Fatalf("wedge error does not name the waiting caches and the held commands: %q", msg)
	}
	noneLeft(t, before)
}

// noneLeft waits for every node loop and processor goroutine a wedged
// Run stopped to be gone: the runtime may take a moment to retire them.
func noneLeft(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running after a wedged Run (%d before)", runtime.NumGoroutine()-before, before)
		}
		time.Sleep(time.Millisecond)
	}
}

package livesim

import (
	"sync"
	"testing"
	"time"

	"twobit/internal/addr"
)

// TestShutdownDeliversHeldInvalidations holds cache 1 busy — its goroutine
// blocked answering a processor request nobody collects — while processor
// 0's write misses queue a BROADINV per block in cache 1's inbox, and
// keeps holding it until both processors have finished. Run must not begin
// shutting cache 1 down while those invalidations are undelivered: once
// it is released, cache 1 drops its stale copies and the quiescent
// invariants hold. A shutdown that closes quit first leaves each stale
// copy beside the writer's modified one.
func TestShutdownDeliversHeldInvalidations(t *testing.T) {
	const blocks = 4
	m, err := New(Config{Procs: 2, Modules: 1, CacheBlocks: blocks, Blocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	c1 := m.caches[1]
	held := make(chan uint64) // cache 1 blocks sending on it until released
	filled := make(chan struct{})
	var procs sync.WaitGroup
	procs.Add(2)
	// Once the processors finish, a one-sided shutdown closes quit
	// within microseconds, and the release then finds the invalidations
	// still queued. A correct Run cannot close it before the release, so
	// the timer is only how long the test waits for a quit that must not
	// come.
	undelivered := -1
	released := make(chan struct{})
	go func() {
		defer close(released)
		procs.Wait()
		select {
		case <-m.quit:
			undelivered = len(c1.inbox)
		case <-time.After(100 * time.Millisecond):
		}
		<-held
	}()
	err = m.Run(func(proc int, access func(addr.Ref) uint64) {
		defer procs.Done()
		if proc == 1 {
			for b := 0; b < blocks; b++ {
				access(addr.Ref{Block: addr.Block(b)}) // a clean copy of each: Present1
			}
			c1.reqCh <- &procReq{ref: addr.Ref{Block: 0}, resp: held}
			close(filled)
			return
		}
		<-filled
		for b := 0; b < blocks; b++ {
			access(addr.Ref{Block: addr.Block(b), Write: true}) // BROADINV to cache 1
		}
	})
	<-released
	if err != nil {
		t.Fatal(err)
	}
	if undelivered >= 0 {
		t.Fatalf("shutdown began with %d messages queued for a busy cache", undelivered)
	}
}

package livesim

import (
	"runtime"
	"testing"

	"twobit/internal/addr"
)

// TestHeldInboxKeepsTheLiveCopy replays, deterministically, the two
// interleavings in which a message about a stale copy reaches the
// controller after another cache re-fetched the block. Cache A's
// goroutine never starts: the test drives A by hand, so A's inbox is held
// — its BROADINV undelivered — for exactly as long as the scenario needs.
//
// Both cases share a prefix. A and C read block 0 (Present*); C writes it,
// whose BROADINV waits in A's inbox; C evicts it and reads it back, so
// block 0 is Present1 and the copy it counts is C's, while A still holds
// its stale one. Then:
//
//   - clean EJECT: A evicts its stale copy with EJECT(read). Present1 must
//     not become Absent (core's twoBitDir.ejected: Present1 degrades to
//     Present*), or C's live copy is beside an Absent block.
//   - MACK(false): A writes its stale copy. Its MREQUEST is granted with no
//     invalidation (Present1), A takes its BROADINV, converts, and denies
//     the grant. Present1 must stand (core's Controller.ack), or A's write
//     REQUEST finds the block Absent, skips the BROADINV and leaves C's
//     copy stale beside A's modified one.
func TestHeldInboxKeepsTheLiveCopy(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    addr.Ref // A's reference after the prefix
	}{
		{"clean EJECT", addr.Ref{Block: 2}},
		{"MACK(false)", addr.Ref{Block: 0, Write: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(Config{Procs: 2, Modules: 1, CacheBlocks: 1, Blocks: 3})
			if err != nil {
				t.Fatal(err)
			}
			a, c, ctrl := m.caches[0], m.caches[1], m.ctrls[0]
			m.nodes.Add(2)
			go ctrl.loop()
			go c.loop()
			byHand := func(ref addr.Ref) { // A's loop, for one reference
				req := &procReq{ref: ref, resp: make(chan uint64, 1)}
				a.handleReq(req)
				for a.pend != nil {
					a.handleMsg(<-a.inbox)
					m.done()
				}
				<-req.resp
			}

			byHand(addr.Ref{Block: 0})
			c.access(addr.Ref{Block: 0})
			c.access(addr.Ref{Block: 0, Write: true}) // BROADINV held in A's inbox
			c.access(addr.Ref{Block: 1})              // evicts block 0: Absent
			c.access(addr.Ref{Block: 0})              // Present1, counting C's copy
			if len(a.inbox) != 1 {
				t.Fatalf("A's inbox holds %d messages, want its one BROADINV", len(a.inbox))
			}
			byHand(tc.a)

			// Quiesce: whatever still comes A's way is delivered by hand.
			for m.inflight.Load() != 0 {
				select {
				case msg := <-a.inbox:
					a.handleMsg(msg)
					m.done()
				default:
					runtime.Gosched()
				}
			}
			close(m.quit)
			m.nodes.Wait()
			if err := m.verdict(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

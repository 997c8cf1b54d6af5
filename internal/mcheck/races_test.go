package mcheck

// The §3.2.5 race schedules. The paper resolves two races born of the
// two-bit scheme's ignorance of who holds a block:
//
//   - MREQUEST × BROADINV: a cache writes a clean copy (MREQUEST) while
//     the controller is already invalidating that copy on behalf of
//     another cache's write miss. The MREQUEST becomes a phantom — its
//     sender no longer holds the block by the time it arrives — and the
//     controller must not grant it.
//   - EJECT × BROADQUERY: a cache ejects its modified copy while the
//     controller broadcasts a query for it. The query crosses the
//     EJECT/put pair in flight; the doomed copy's owner must not answer
//     and the controller must take the data from the eject path.
//
// Each schedule below is pinned three ways: (1) every action is checked
// to be a legal choice of the explorer at its choice point, so the path
// is literally an edge sequence of the exhaustively verified state
// graph; (2) the race condition itself is asserted mid-schedule (both
// racing messages simultaneously in flight); (3) the schedule's trace is
// golden-pinned under testdata/ and must replay fingerprint-for-
// fingerprint with the oracle silent. Regenerate goldens with
// `go test ./internal/mcheck -run TestRaceSchedules -update`.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"twobit/internal/addr"
	"twobit/internal/msg"
	"twobit/internal/network"
	"twobit/internal/system"
)

var update = flag.Bool("update", false, "rewrite golden race traces")

// raceStep is one scripted action plus an optional assertion on the
// drained state it lands on.
type raceStep struct {
	act   Action
	check func(t *testing.T, h *machine)
}

func issue(p int, write bool, b int) Action {
	return Action{Kind: ActIssue, Proc: p, Write: write, Block: addr.Block(b)}
}

func deliver(src, dst int) Action {
	return Action{Kind: ActDeliver, Src: src, Dst: dst}
}

// hasKind reports whether a message of kind k is queued from src to dst.
func hasKind(h *machine, src, dst int, k msg.Kind) bool {
	for _, m := range h.rm.Pending(network.NodeID(src), network.NodeID(dst)) {
		if m.Kind == k {
			return true
		}
	}
	return false
}

// wantInFlight asserts a message kind is in flight on the (src,dst) queue.
func wantInFlight(t *testing.T, h *machine, src, dst int, k msg.Kind) {
	t.Helper()
	if !hasKind(h, src, dst, k) {
		t.Fatalf("race not armed: no %v in flight %d->%d; queue: %v",
			k, src, dst, h.rm.Pending(network.NodeID(src), network.NodeID(dst)))
	}
}

// legalOption asserts act is among the explorer's enabled actions at the
// current choice point — the proof that the scripted path lies inside
// the exhaustively checked state graph.
func legalOption(t *testing.T, h *machine, act Action) {
	t.Helper()
	for _, o := range append(h.issueOptions(), h.deliverOptions()...) {
		if o == act {
			return
		}
	}
	t.Fatalf("scripted action %v is not an explorer option here", act)
}

func TestRaceSchedules(t *testing.T) {
	// Node ids: caches are 0..Caches-1, the controller is node Caches.
	const ctrl = 2

	races := []struct {
		name   string
		cfg    Config
		script []raceStep
	}{
		{
			// p0 acquires a clean copy; p1's write miss makes the
			// controller broadcast BROADINV; p0 then writes its (still
			// live) copy, launching MREQUEST against the incoming
			// invalidation. The invalidation lands first, so the
			// MREQUEST that arrives is a phantom and must be denied.
			name: "mrequest-vs-broadinv",
			cfg:  Config{Protocol: system.TwoBit, Caches: 2, Blocks: 1, Sets: 1, RefsPerProc: 2},
			script: []raceStep{
				{act: issue(0, false, 0)},
				{act: deliver(0, ctrl)},
				{act: deliver(ctrl, 0), check: func(t *testing.T, h *machine) {
					if h.rm.Busy(0) {
						t.Fatal("p0 read should have completed")
					}
				}},
				{act: issue(1, true, 0)},
				{act: deliver(1, ctrl), check: func(t *testing.T, h *machine) {
					wantInFlight(t, h, ctrl, 0, msg.KindBroadInv)
				}},
				{act: issue(0, true, 0), check: func(t *testing.T, h *machine) {
					// The race is armed: MREQUEST outbound while the
					// BROADINV that dooms it is inbound.
					wantInFlight(t, h, 0, ctrl, msg.KindMRequest)
					wantInFlight(t, h, ctrl, 0, msg.KindBroadInv)
				}},
				// Resolution order under test: the invalidation wins.
				{act: deliver(ctrl, 0)},
				{act: deliver(0, ctrl)},
			},
		},
		{
			// p0 owns a modified copy of b0; p1's read miss makes the
			// controller broadcast BROADQUERY; p0's conflicting read of
			// b1 (same set, direct-mapped) ejects the modified copy,
			// launching EJECT+put against the incoming query. The query
			// lands on a doomed copy and must go unanswered; the data
			// arrives via the eject path.
			name: "eject-vs-broadquery",
			cfg:  Config{Protocol: system.TwoBit, Caches: 2, Blocks: 2, Sets: 1, RefsPerProc: 2},
			script: []raceStep{
				{act: issue(0, true, 0)},
				{act: deliver(0, ctrl)},
				{act: deliver(ctrl, 0)},
				{act: issue(1, false, 0)},
				{act: deliver(1, ctrl), check: func(t *testing.T, h *machine) {
					wantInFlight(t, h, ctrl, 0, msg.KindBroadQuery)
				}},
				{act: issue(0, false, 1), check: func(t *testing.T, h *machine) {
					// The race is armed: the modified copy's EJECT is
					// outbound while the query for it is inbound.
					wantInFlight(t, h, 0, ctrl, msg.KindEject)
					wantInFlight(t, h, ctrl, 0, msg.KindBroadQuery)
				}},
				// Resolution order under test: the query crosses the
				// eject and lands on the doomed copy first.
				{act: deliver(ctrl, 0)},
			},
		},
	}

	for _, rc := range races {
		t.Run(rc.name, func(t *testing.T) {
			// 1. Walk the script, checking each action is an explorer
			// option and asserting the race checkpoints; then drain
			// greedily (deterministically) to rest.
			h, err := newMachine(rc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var acts []Action
			for _, s := range rc.script {
				legalOption(t, h, s.act)
				if err := h.apply(s.act); err != nil {
					t.Fatalf("apply(%v): %v", s.act, err)
				}
				acts = append(acts, s.act)
				if s.check != nil {
					s.check(t, h)
				}
			}
			for {
				opts := h.deliverOptions()
				if len(opts) == 0 {
					break
				}
				if err := h.apply(opts[0]); err != nil {
					t.Fatalf("drain %v: %v", opts[0], err)
				}
				acts = append(acts, opts[0])
			}
			for p := 0; p < rc.cfg.Caches; p++ {
				if h.rm.Busy(p) {
					t.Fatalf("processor %d still busy at rest", p)
				}
			}
			if v := checkState(h, true); v != nil {
				t.Fatalf("rest state after race violates invariants: %v", v)
			}

			// 2. The same configuration's full closure is clean — the
			// scripted path (all its actions being explorer options) is
			// one of the interleavings that closure covers.
			res, err := Check(rc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatalf("exhaustive check: %v", res.Violation)
			}

			// 3. Pin the schedule as a golden trace and replay it.
			tr, err := TraceOfSchedule(rc.cfg, acts)
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "race_"+rc.name+".trace")
			enc := EncodeTrace(tr)
			if *update {
				if err := os.WriteFile(golden, enc, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(enc, want) {
				t.Errorf("schedule diverged from golden %s:\n%s", golden, enc)
			}
			dec, err := DecodeTrace(want)
			if err != nil {
				t.Fatal(err)
			}
			if err := Replay(dec); err != nil {
				t.Errorf("replay: %v", err)
			}
		})
	}
}

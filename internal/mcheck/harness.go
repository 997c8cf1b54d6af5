package mcheck

import (
	"fmt"

	"twobit/internal/addr"
	"twobit/internal/cache"
	"twobit/internal/network"
	"twobit/internal/proto"
	"twobit/internal/system"
)

// machine is the checked machine: the simulator's own schedule-driven
// system.ReplayMachine, assembled by the simulator's protocol table with
// its coherence oracle on. One is built per exploration (or replay) and
// reset in place (rm.Reset) before each replayed action prefix.
type machine struct {
	cfg Config
	rm  *system.ReplayMachine
	top proto.Topology
}

// newMachine validates cfg and assembles its machine.
func newMachine(cfg Config) (*machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rm, err := system.NewReplayMachine(cfg.machine(), cfg.Blocks)
	if err != nil {
		return nil, err
	}
	return &machine{cfg: cfg, rm: rm, top: proto.Topology{Caches: cfg.Caches, Modules: 1}}, nil
}

// apply performs one action and drains every resulting timed event, so
// the machine lands on the next choice point. A panic inside a protocol
// handler (the components assert their own protocol expectations) is
// converted into an error: under an injected defect a handler tripping
// over an impossible message is itself a finding, not a checker crash.
// The machine must be reset after one.
func (h *machine) apply(a Action) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("protocol panic on %v: %v", a, r)
		}
	}()
	s := system.ReplayStep{Src: network.NodeID(a.Src), Dst: network.NodeID(a.Dst)}
	if a.Kind == ActIssue {
		public := h.cfg.partitioned() && a.Block == 0
		s = system.ReplayStep{Issue: true, Proc: a.Proc, Ref: addr.Ref{Block: a.Block, Write: a.Write, Shared: public}}
	}
	return h.rm.Step(s)
}

// deliverOptions returns the deliverable (src,dst) pairs in canonical
// node order.
func (h *machine) deliverOptions() []Action {
	var out []Action
	n := h.cfg.Caches + 1
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if len(h.rm.Pending(network.NodeID(s), network.NodeID(d))) > 0 {
				out = append(out, Action{Kind: ActDeliver, Src: s, Dst: d})
			}
		}
	}
	return out
}

// issueOptions returns the enabled processor issues: every idle
// processor with budget left may read or write any block — under the
// software partition, any block but another processor's private ones.
func (h *machine) issueOptions() []Action {
	var out []Action
	for p := 0; p < h.cfg.Caches; p++ {
		if h.rm.Busy(p) || h.rm.Issued(p) >= h.cfg.RefsPerProc {
			continue
		}
		blocks := h.cfg.Blocks
		if p > 0 && h.cfg.partitioned() {
			blocks = 1 // the public block
		}
		for b := 0; b < blocks; b++ {
			out = append(out,
				Action{Kind: ActIssue, Proc: p, Block: addr.Block(b)},
				Action{Kind: ActIssue, Proc: p, Write: true, Block: addr.Block(b)})
		}
	}
	return out
}

// store returns cache k's frames.
func (h *machine) store(k int) *cache.Cache { return h.rm.Machine().CacheSide(k).Store() }

// currentOf returns the last committed version of b (0 initially), as the
// oracle recorded it.
func (h *machine) currentOf(b addr.Block) uint64 { return h.rm.Machine().Oracle().Latest(b) }

package mcheck

import (
	"fmt"

	"twobit/internal/addr"
	"twobit/internal/core"
	"twobit/internal/network"
	"twobit/internal/proto"
	"twobit/internal/system"
)

// machine is the checked machine: the simulator's own schedule-driven
// system.ReplayMachine, assembled by the simulator's protocol table with
// its coherence oracle on. One is built per exploration (or replay) and
// reset in place (rm.Reset) before each replayed action prefix. The
// fingerprint encoder and the invariant checkers read its components
// through the typed fields.
type machine struct {
	cfg    Config
	rm     *system.ReplayMachine
	top    proto.Topology
	agents []*proto.CacheAgent
	ctl    *core.Controller
}

// newMachine validates cfg and assembles its machine: one memory module,
// direct-mapped caches of Sets sets, default latencies and per-block
// concurrency.
func newMachine(cfg Config) (*machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rm, err := system.NewReplayMachine(system.Config{
		Protocol:   cfg.Protocol.system(),
		Procs:      cfg.Caches,
		Modules:    1,
		CacheSets:  cfg.Sets,
		CacheAssoc: 1,
		Lat:        proto.DefaultLatencies(),
		Mode:       proto.PerBlock,
		Seed:       1,
		CoreHooks:  cfg.Hooks,
	}, cfg.Blocks)
	if err != nil {
		return nil, err
	}
	h := &machine{
		cfg:    cfg,
		rm:     rm,
		top:    proto.Topology{Caches: cfg.Caches, Modules: 1},
		agents: make([]*proto.CacheAgent, cfg.Caches),
		ctl:    rm.Machine().MemSide(0).(*core.Controller),
	}
	for k := range h.agents {
		h.agents[k] = rm.Machine().CacheSide(k).(*proto.CacheAgent)
	}
	return h, nil
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
		s = system.ReplayStep{Issue: true, Proc: a.Proc, Ref: addr.Ref{Block: a.Block, Write: a.Write}}
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
// processor with budget left may read or write any block.
func (h *machine) issueOptions() []Action {
	var out []Action
	for p := 0; p < h.cfg.Caches; p++ {
		if h.rm.Busy(p) || h.rm.Issued(p) >= h.cfg.RefsPerProc {
			continue
		}
		for b := 0; b < h.cfg.Blocks; b++ {
			out = append(out,
				Action{Kind: ActIssue, Proc: p, Block: addr.Block(b)},
				Action{Kind: ActIssue, Proc: p, Write: true, Block: addr.Block(b)})
		}
	}
	return out
}

// currentOf returns the last committed version of b (0 initially), as the
// oracle recorded it.
func (h *machine) currentOf(b addr.Block) uint64 { return h.rm.Machine().Oracle().Latest(b) }

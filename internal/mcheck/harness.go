package mcheck

import (
	"fmt"

	"twobit/internal/addr"
	"twobit/internal/cache"
	"twobit/internal/core"
	"twobit/internal/memory"
	"twobit/internal/msg"
	"twobit/internal/network"
	"twobit/internal/proto"
	"twobit/internal/sim"
)

// view is the observable machine state the fingerprint encoder and the
// invariant checkers read. Two implementations exist: the explorer's
// harness below, and the bridge's wrapper around a full system.Machine —
// encoding both through one interface is what makes the trace bridge a
// real cross-check rather than a re-encoding of the same object.
type view interface {
	protocol() Protocol
	caches() int
	blocks() int
	// agent returns cache k's protocol agent.
	agent(k int) *proto.CacheAgent
	// ctrl returns the (single) memory controller.
	ctrl() *core.Controller
	// currentOf returns the last committed version of b (0 initially).
	currentOf(b addr.Block) uint64
	// busyProc reports whether processor k has a reference outstanding.
	busyProc(k int) bool
	// issuedOf returns how many references processor k has issued.
	issuedOf(k int) int
	// pending returns the in-flight messages queued from src to dst.
	pending(src, dst network.NodeID) []msg.Message
	topo() proto.Topology
}

// harness is a lean machine — the real protocol components on a chooser
// network, with none of the simulator's oracle, stats aggregation or
// instrumentation — rebuilt (cheaply, on a reused kernel) for every
// replayed action prefix.
type harness struct {
	cfg    Config
	kernel *sim.Kernel
	net    *chooser
	top    proto.Topology
	space  addr.Space
	agents []*proto.CacheAgent
	ctl    *core.Controller

	busy    []bool
	issued  []int
	current []uint64
	nextVer uint64
	doneFns []func(uint64)
}

// newHarness assembles a machine for cfg on kernel (which is Reset).
func newHarness(cfg Config, kernel *sim.Kernel) *harness {
	kernel.Reset()
	h := &harness{
		cfg:     cfg,
		kernel:  kernel,
		net:     newChooser(),
		top:     proto.Topology{Caches: cfg.Caches, Modules: 1},
		space:   addr.Space{Blocks: cfg.Blocks, Modules: 1},
		busy:    make([]bool, cfg.Caches),
		issued:  make([]int, cfg.Caches),
		current: make([]uint64, cfg.Blocks),
		agents:  make([]*proto.CacheAgent, cfg.Caches),
		doneFns: make([]func(uint64), cfg.Caches),
	}
	lat := proto.DefaultLatencies()
	commit := func(b addr.Block, v uint64) { h.current[b] = v }
	for k := 0; k < cfg.Caches; k++ {
		k := k
		h.doneFns[k] = func(uint64) { h.busy[k] = false }
		store := cache.New(cache.Config{Sets: cfg.Sets, Assoc: 1})
		h.agents[k] = proto.NewCacheAgent(proto.AgentConfig{
			Index:  k,
			Topo:   h.top,
			Lat:    lat,
			Commit: commit,
		}, kernel, h.net, store)
	}
	h.ctl = core.New(proto.CtrlConfig{
		Module: 0, Topo: h.top, Space: h.space, Lat: lat,
		Mode: proto.PerBlock, Commit: commit, Hooks: cfg.Hooks,
	}, cfg.Protocol.policy(), kernel, h.net, memory.NewModule(h.space, 0, lat.Memory))
	return h
}

// nodes returns the network node count (caches + one controller).
func (h *harness) nodes() int { return h.cfg.Caches + 1 }

// apply performs one action and drains every resulting timed event, so
// the harness lands on the next choice point. A panic inside a protocol
// handler (the components assert their own protocol expectations) is
// converted into an error: under an injected defect a handler tripping
// over an impossible message is itself a finding, not a checker crash.
func (h *harness) apply(a Action) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("protocol panic on %v: %v", a, r)
		}
	}()
	switch a.Kind {
	case ActIssue:
		if a.Proc < 0 || a.Proc >= h.cfg.Caches {
			return fmt.Errorf("mcheck: issue to processor %d of %d", a.Proc, h.cfg.Caches)
		}
		if h.busy[a.Proc] {
			return fmt.Errorf("mcheck: issue to busy processor %d", a.Proc)
		}
		if int(a.Block) >= h.cfg.Blocks {
			return fmt.Errorf("mcheck: issue beyond block space: %v", a.Block)
		}
		var version uint64
		if a.Write {
			h.nextVer++
			version = h.nextVer
		}
		h.busy[a.Proc] = true
		h.issued[a.Proc]++
		h.agents[a.Proc].Access(addr.Ref{Block: a.Block, Write: a.Write}, version, h.doneFns[a.Proc])
	case ActDeliver:
		if err := h.net.deliver(network.NodeID(a.Src), network.NodeID(a.Dst)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("mcheck: unknown action kind %d", a.Kind)
	}
	h.kernel.Run()
	return nil
}

// deliverOptions returns the deliverable (src,dst) pairs in canonical
// node order.
func (h *harness) deliverOptions() []Action {
	var out []Action
	n := h.nodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if len(h.net.pending(network.NodeID(s), network.NodeID(d))) > 0 {
				out = append(out, Action{Kind: ActDeliver, Src: s, Dst: d})
			}
		}
	}
	return out
}

// issueOptions returns the enabled processor issues: every idle
// processor with budget left may read or write any block.
func (h *harness) issueOptions() []Action {
	var out []Action
	for p := 0; p < h.cfg.Caches; p++ {
		if h.busy[p] || h.issued[p] >= h.cfg.RefsPerProc {
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

// view implementation.

func (h *harness) protocol() Protocol            { return h.cfg.Protocol }
func (h *harness) caches() int                   { return h.cfg.Caches }
func (h *harness) blocks() int                   { return h.cfg.Blocks }
func (h *harness) agent(k int) *proto.CacheAgent { return h.agents[k] }
func (h *harness) currentOf(b addr.Block) uint64 { return h.current[b] }
func (h *harness) busyProc(k int) bool           { return h.busy[k] }
func (h *harness) issuedOf(k int) int            { return h.issued[k] }
func (h *harness) topo() proto.Topology          { return h.top }

func (h *harness) pending(src, dst network.NodeID) []msg.Message {
	return h.net.pending(src, dst)
}

func (h *harness) ctrl() *core.Controller { return h.ctl }

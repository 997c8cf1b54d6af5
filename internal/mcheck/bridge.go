package mcheck

import (
	"fmt"
	"strings"

	"twobit/internal/addr"
	"twobit/internal/core"
	"twobit/internal/msg"
	"twobit/internal/network"
	"twobit/internal/proto"
	"twobit/internal/system"
)

// The bridge: every trace this package emits also replays on the full
// internal/system simulator. The two machines are assembled through
// entirely separate paths — newHarness here, the protocol builders
// there — and the simulator carries everything the harness strips away
// (linearizability oracle, statistics, latency histograms). Matching the
// identity fingerprint at every drained state is therefore a real
// cross-check: it proves the machine the checker verified is the machine
// the experiments simulate, not a re-encoding of the same object.

// simView adapts a schedule-driven simulator machine to the view
// interface, so the same encoder and invariant checkers the explorer
// uses read the simulator's state.
type simView struct {
	cfg Config
	rm  *system.ReplayMachine
	top proto.Topology
}

func (s *simView) protocol() Protocol   { return s.cfg.Protocol }
func (s *simView) caches() int          { return s.cfg.Caches }
func (s *simView) blocks() int          { return s.cfg.Blocks }
func (s *simView) topo() proto.Topology { return s.top }

func (s *simView) agent(k int) *proto.CacheAgent {
	return s.rm.Machine().CacheSide(k).(*proto.CacheAgent)
}

func (s *simView) ctrl() *core.Controller {
	return s.rm.Machine().MemSide(0).(*core.Controller)
}

func (s *simView) currentOf(b addr.Block) uint64 {
	return s.rm.Machine().Oracle().Latest(b)
}

func (s *simView) busyProc(k int) bool { return s.rm.Busy(k) }
func (s *simView) issuedOf(k int) int  { return s.rm.Issued(k) }

func (s *simView) pending(src, dst network.NodeID) []msg.Message {
	return s.rm.Pending(src, dst)
}

// sysConfig maps a checker configuration onto the simulator's. The
// geometry must match the harness exactly — one memory module,
// direct-mapped caches of Sets sets, default latencies, per-block
// concurrency — or the fingerprints would diverge on the first step.
func sysConfig(cfg Config) system.Config {
	return system.Config{
		Protocol:   cfg.Protocol.system(),
		Procs:      cfg.Caches,
		Modules:    1,
		CacheSets:  cfg.Sets,
		CacheAssoc: 1,
		Lat:        proto.DefaultLatencies(),
		Mode:       proto.PerBlock,
		Seed:       1,
		CoreHooks:  cfg.Hooks,
	}
}

// ReplayInSim re-runs the trace on the full simulator and verifies the
// identity fingerprint after every step, exactly as Replay does on the
// harness. After the final step it additionally requires the trace's
// recorded per-state violation (if any) to reproduce under the
// simulator's components, and rejects oracle complaints on a clean
// trace. Graph-level violations (livelock) have no per-state witness;
// for those the step-for-step fingerprint parity is the whole check.
func ReplayInSim(t Trace) error {
	if err := t.Cfg.Validate(); err != nil {
		return err
	}
	rm, err := system.NewReplayMachine(sysConfig(t.Cfg), t.Cfg.Blocks)
	if err != nil {
		return err
	}
	sv := &simView{cfg: t.Cfg, rm: rm, top: proto.Topology{Caches: t.Cfg.Caches, Modules: 1}}
	enc := newEncoder(t.Cfg)
	if fp := enc.fingerprint(sv); fp != t.Init {
		return fmt.Errorf("mcheck: sim initial state fingerprint %#x, trace says %#x", fp, t.Init)
	}
	for i, s := range t.Steps {
		if err := rm.Step(toReplayStep(s.Act)); err != nil {
			if s.Fp == 0 && i == len(t.Steps)-1 && strings.Contains(err.Error(), "protocol panic") {
				return nil // the recorded crash reproduced in the simulator
			}
			return fmt.Errorf("mcheck: sim step %d (%v) failed: %w", i, s.Act, err)
		}
		if s.Fp == 0 {
			return fmt.Errorf("mcheck: sim step %d (%v) recorded a crash that did not reproduce", i, s.Act)
		}
		if fp := enc.fingerprint(sv); fp != s.Fp {
			return fmt.Errorf("mcheck: sim step %d (%v) reached state %#x, trace says %#x", i, s.Act, fp, s.Fp)
		}
	}
	if t.Violation == "" {
		if errs := rm.Errs(); len(errs) > 0 {
			return fmt.Errorf("mcheck: sim oracle flagged a clean trace: %w", errs[0])
		}
		return nil
	}
	kind, _, _ := strings.Cut(t.Violation, ":")
	switch kind {
	case "swmr", "stale-read", "deadlock", "conformance":
		viol := checkState(sv, !anyPending(sv))
		if viol == nil {
			return fmt.Errorf("mcheck: violation %q did not reproduce on the sim's final state", t.Violation)
		}
		if viol.Kind != kind {
			return fmt.Errorf("mcheck: sim final state violates %q, trace says %q", viol.Kind, kind)
		}
	}
	return nil
}

func toReplayStep(a Action) system.ReplayStep {
	if a.Kind == ActIssue {
		return system.ReplayStep{
			Issue: true, Proc: a.Proc,
			Ref: addr.Ref{Block: a.Block, Write: a.Write},
		}
	}
	return system.ReplayStep{Src: network.NodeID(a.Src), Dst: network.NodeID(a.Dst)}
}

// anyPending reports whether any network queue is nonempty (the state is
// not at rest).
func anyPending(v view) bool {
	n := v.caches() + 1
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if len(v.pending(network.NodeID(s), network.NodeID(d))) > 0 {
				return true
			}
		}
	}
	return false
}

// Package mcheck is an explicit-state model checker for the coherence
// protocols: it enumerates every reachable state of a small configured
// machine — all interleavings of processor reads and writes, the cache
// ejects they force, and in-flight network messages — and proves four
// properties over the reachable state graph:
//
//   - Single-writer/no-stale-reader: never two caches with a modified
//     copy of a block, and every live (not-being-invalidated) copy holds
//     the block's current committed version.
//   - Value correctness: on every explored transition the simulator's
//     coherence oracle accepts every value returned to a processor.
//   - Deadlock freedom: at every rest state (nothing deliverable) every
//     processor reference has completed, every controller is quiescent,
//     and the machine passes the simulator's own quiescence check — the
//     one every simulation run ends with.
//   - Progress (livelock freedom): from every reachable state a rest
//     state is reachable by message deliveries alone — no new processor
//     references are ever needed to drain the machine.
//
// The transition rules are not a hand-written abstraction: the checked
// machine is the simulator's own — a system.ReplayMachine, assembled by
// the protocol table the experiments run, on its delivery-choice network —
// and each state is reconstructed by resetting it and replaying the
// state's action prefix. Every protocol that exchanges messages is
// checked: two-bit, full-map, full-map+E, classical, duplication and
// software. A choice point is a *drained* machine — all timed events run,
// so the only nondeterminism left is which processor issues next and
// which queued message is delivered next; this is sound because
// concurrency enters the protocols only through message deliveries
// (timers never race: each delivery's cascade runs sequentially).
//
// Exhaustiveness is bounded in exactly one way: each processor issues at
// most RefsPerProc references. Within that bound the closure is complete
// — every delivery interleaving of every read/write/eject sequence is
// visited. States are canonicalized before dedup: write versions are
// relabeled in first-encounter order (the protocols only move versions,
// never compare them, so the equality pattern is the state), and the
// caches are symmetric, so each state is reduced to its lexicographically
// least representative under cache-index permutation. The oracle's
// per-processor history is not part of the state, so its check runs on
// each transition before deduplication: it covers every explored edge,
// not every path.
//
// Every violation is emitted as a counterexample Trace that Replay
// re-walks step for step, re-checking its recorded verdict.
package mcheck

import (
	"fmt"

	"twobit/internal/addr"
	"twobit/internal/proto"
	"twobit/internal/system"
)

// Config bounds the checked machine. The cache geometry is Sets sets ×
// 1 way: direct-mapped, so victim selection is deterministic and the
// replacement clock never enters the state. Sets=1 with Blocks=2 forces
// an ejection on every conflicting miss, which is how the EJECT races
// are covered.
type Config struct {
	// Protocol is any protocol that exchanges messages — every one but
	// write-once, whose agents transact on the snooping bus.
	Protocol system.Protocol
	// Caches is the number of processor-cache pairs (n ≥ 2 to exercise
	// coherence; the state graph grows steeply with n).
	Caches int
	// Blocks is the address-space size (1 or 2 cover every protocol path;
	// 2 with Sets=1 adds the replacement protocol).
	Blocks int
	// Sets is the per-cache set count (associativity is fixed at 1).
	Sets int
	// RefsPerProc bounds each processor's reference count — the one
	// exhaustiveness bound (see the package comment).
	RefsPerProc int
	// Mode is the directory controller's §3.2.5 serializer design.
	Mode proto.ConcurrencyMode
	// DisableCleanEject drops EJECT(·,·,"read"), the paper's optional part
	// of the replacement protocol.
	DisableCleanEject bool
	// NoSymmetry disables the cache-permutation reduction (for testing
	// the reduction itself: violations found must not change).
	NoSymmetry bool
	// MaxStates stops exploration after this many canonical states
	// (0 = unlimited). The result reports Truncated.
	MaxStates int
	// MaxDepth stops expanding states deeper than this many actions
	// (0 = unlimited). The result reports Truncated.
	MaxDepth int
	// Hooks injects deliberate two-bit protocol defects (test-only; nil
	// in production). TwoBit only.
	Hooks *proto.BugHooks
}

// DefaultConfig is a small exhaustive configuration: 2 caches × 2 blocks
// with a 1-block cache, 2 references per processor.
func DefaultConfig() Config {
	return Config{Protocol: system.TwoBit, Caches: 2, Blocks: 2, Sets: 1, RefsPerProc: 2}
}

// Validate reports configuration errors: the bounds below, then anything
// the simulator refuses to assemble as a replay machine — an unknown
// protocol, the bus protocol (system.ErrBusProtocol), hooks on a protocol
// other than two-bit.
func (c Config) Validate() error {
	if c.Caches < 2 || c.Caches > 5 {
		return fmt.Errorf("mcheck: Caches must be in [2,5], got %d", c.Caches)
	}
	if c.Blocks < 1 || c.Blocks > 4 {
		return fmt.Errorf("mcheck: Blocks must be in [1,4], got %d", c.Blocks)
	}
	if c.Sets < 1 || c.Sets > c.Blocks {
		return fmt.Errorf("mcheck: Sets must be in [1,Blocks], got %d", c.Sets)
	}
	if c.RefsPerProc < 1 || c.RefsPerProc > 8 {
		return fmt.Errorf("mcheck: RefsPerProc must be in [1,8], got %d", c.RefsPerProc)
	}
	if c.Mode > proto.SingleCommand {
		return fmt.Errorf("mcheck: unknown concurrency mode %v", c.Mode)
	}
	return system.ValidateReplay(c.machine())
}

// machine is the simulator configuration c checks: one memory module,
// direct-mapped caches of Sets sets and default latencies.
func (c Config) machine() system.Config {
	return system.Config{
		Protocol:          c.Protocol,
		Procs:             c.Caches,
		Modules:           1,
		CacheSets:         c.Sets,
		CacheAssoc:        1,
		Lat:               proto.DefaultLatencies(),
		Mode:              c.Mode,
		DisableCleanEject: c.DisableCleanEject,
		Seed:              1,
		CoreHooks:         c.Hooks,
	}
}

// partitioned reports whether c's protocol is checked under §2.2's static
// partition — the software scheme, correct only under it. Block 0 is then
// public (shared, never cached) and every other block is private to
// processor 0.
func (c Config) partitioned() bool { return c.Protocol == system.Software }

// Symmetric reports whether states are reduced under cache permutation:
// unless NoSymmetry asks otherwise or a partition tells the caches apart.
func (c Config) Symmetric() bool { return !c.NoSymmetry && !c.partitioned() }

// Result summarizes an exploration.
type Result struct {
	// States and Edges count the canonical state graph.
	States int
	Edges  int
	// RestStates counts states with no deliverable message.
	RestStates int
	// Depth is the longest action prefix explored (BFS level).
	Depth int
	// Truncated reports that MaxStates or MaxDepth cut the exploration;
	// a nil Violation then proves nothing beyond the explored prefix.
	Truncated bool
	// Violation is the first property violation found, or nil.
	Violation *Violation
}

// Violation is a refuted property with its counterexample.
type Violation struct {
	// Kind is one of "swmr", "stale-read", "deadlock", "livelock",
	// "conformance", "oracle" or "crash".
	Kind string
	// Detail is a human-readable description of the violated check.
	Detail string
	// Trace is the concrete action path from the initial state to the
	// violating state; Replay re-walks it.
	Trace Trace
}

func (v *Violation) String() string { return v.Kind + ": " + v.Detail }

// ActionKind discriminates Action.
type ActionKind uint8

const (
	// ActIssue makes an idle processor issue one reference.
	ActIssue ActionKind = iota
	// ActDeliver delivers the head of one (source,destination) network
	// queue.
	ActDeliver
)

// Action is one transition choice at a drained state.
type Action struct {
	Kind ActionKind
	// Issue fields.
	Proc  int
	Write bool
	Block addr.Block
	// Deliver fields (network node ids).
	Src, Dst int
}

func (a Action) String() string {
	if a.Kind == ActIssue {
		rw := "read"
		if a.Write {
			rw = "write"
		}
		return fmt.Sprintf("issue(p%d %s b%d)", a.Proc, rw, a.Block)
	}
	return fmt.Sprintf("deliver(%d->%d)", a.Src, a.Dst)
}

// Package mcheck is an explicit-state model checker for the coherence
// protocols: it enumerates every reachable state of a small configured
// machine — all interleavings of processor reads and writes, the cache
// ejects they force, and in-flight network messages — and proves three
// properties over the reachable state graph:
//
//   - Single-writer/no-stale-reader: never two caches with a modified
//     copy of a block, and every live (not-being-invalidated) copy holds
//     the block's current committed version.
//   - Deadlock freedom: every state with work outstanding has a
//     deliverable message, and at every rest state (nothing deliverable)
//     the machine is fully quiescent.
//   - Progress (livelock freedom): from every reachable state a rest
//     state is reachable by message deliveries alone — no new processor
//     references are ever needed to drain the machine.
//
// The transition rules are not a hand-written abstraction: the checked
// machine is the simulator's own — a system.ReplayMachine, assembled by
// the protocol table the experiments run (internal/proto's CacheAgent,
// internal/core's Controller under each directory policy) on its
// delivery-choice network — and each state is reconstructed by resetting
// it and replaying the state's action prefix. A choice point is a
// *drained* machine — all timed events run, so the only nondeterminism
// left is which processor issues next and which queued message is
// delivered next; this is sound because concurrency enters the protocols
// only through message deliveries (timers never race: each delivery's
// cascade runs sequentially).
//
// Exhaustiveness is bounded in exactly one way: each processor issues at
// most RefsPerProc references. Within that bound the closure is complete
// — every delivery interleaving of every read/write/eject sequence is
// visited. States are canonicalized before dedup: write versions are
// relabeled in first-encounter order (the protocols only move versions,
// never compare them, so the equality pattern is the state), and the
// caches are symmetric, so each state is reduced to its lexicographically
// least representative under cache-index permutation.
//
// Every violation is emitted as a counterexample Trace that Replay
// re-walks step for step, re-checking its recorded verdict.
package mcheck

import (
	"fmt"

	"twobit/internal/addr"
	"twobit/internal/core"
	"twobit/internal/proto"
	"twobit/internal/system"
)

// Protocol selects the checked protocol.
type Protocol uint8

const (
	// TwoBit is the paper's two-bit directory scheme.
	TwoBit Protocol = iota
	// FullMap is the Censier–Feautrier baseline, checked to prove the
	// framework is not specialized to one protocol.
	FullMap
	// Duplication is Tang's central duplicate-directory baseline: the
	// same exact-holder policy over a different store, under the
	// single-command serializer.
	Duplication
)

// protocols maps each checked protocol to its simulator twin (whose
// spelling String and the trace codec share) and its controller policy.
var protocols = [...]struct {
	sys    system.Protocol
	policy core.Policy
}{
	TwoBit:      {system.TwoBit, core.Policy{}},
	FullMap:     {system.FullMap, core.FullMap(false)},
	Duplication: {system.Duplication, core.Duplication()},
}

// String names the protocol, matching system.Protocol's spelling.
func (p Protocol) String() string {
	if int(p) >= len(protocols) {
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
	return p.system().String()
}

func (p Protocol) system() system.Protocol { return protocols[p].sys }
func (p Protocol) policy() core.Policy     { return protocols[p].policy }

// ParseProtocol inverts String.
func ParseProtocol(name string) (Protocol, error) {
	for p := range protocols {
		if Protocol(p).String() == name {
			return Protocol(p), nil
		}
	}
	return 0, fmt.Errorf("mcheck: unknown protocol %q", name)
}

// Config bounds the checked machine. The cache geometry is Sets sets ×
// 1 way: direct-mapped, so victim selection is deterministic and the
// replacement clock never enters the state. Sets=1 with Blocks=2 forces
// an ejection on every conflicting miss, which is how the EJECT races
// are covered.
type Config struct {
	Protocol Protocol
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
	return Config{Protocol: TwoBit, Caches: 2, Blocks: 2, Sets: 1, RefsPerProc: 2}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if int(c.Protocol) >= len(protocols) {
		return fmt.Errorf("mcheck: unknown protocol %d", c.Protocol)
	}
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
	if c.Hooks != nil && c.Protocol != TwoBit {
		return fmt.Errorf("mcheck: Hooks apply to the two-bit protocol only")
	}
	return nil
}

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
	// "conformance".
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

package proto

import (
	"fmt"

	"twobit/internal/addr"
	"twobit/internal/cache"
	"twobit/internal/memory"
	"twobit/internal/msg"
	"twobit/internal/network"
	"twobit/internal/obs"
	"twobit/internal/sim"
)

// AgentConfig configures a cache agent of any protocol. Index and Topo are
// machine shape; the rest are values a Reset may change.
type AgentConfig struct {
	Index int      // k: this cache's index
	Topo  Topology // node layout
	Lat   Latencies
	// Commit is the oracle hook for stores that linearize at the cache;
	// may be nil.
	Commit CommitFunc
	// DisableCleanEject drops EJECT(k,olda,"read") entirely — the paper
	// notes the protocols remain correct without it, at the cost of more
	// broadcasts (Present1 blocks can no longer return to Absent).
	// Directory agents only.
	DisableCleanEject bool
	// ExclusiveGrants enables the Yen–Fu local state (§2.4.3): a get whose
	// Ok flag is set confers exclusivity, and a write hit on an Exclusive
	// frame upgrades to Modified silently, with no MREQUEST. Directory
	// agents only.
	ExclusiveGrants bool
	// BiasFilter enables §2.3's BIAS memory, which filters repeated
	// invalidations of one block. Classical agents only.
	BiasFilter bool
	// Obs is the observability recorder; nil leaves the agent
	// uninstrumented at zero cost. Directory agents only.
	Obs *obs.Recorder
}

// AgentBase is what every cache agent is built on: its identity and
// timing, its kernel, network and cache store, the protocol counters, and
// the one processor reference a blocking processor can have outstanding —
// kept in value fields from Begin until done has run, so neither issuing
// nor completing a reference allocates. Agents embed it and add their
// protocol's reactions.
type AgentBase struct {
	AgentConfig
	Kernel *sim.Kernel
	Net    network.Network
	store  *cache.Cache
	Stats  CacheSideStats

	// Ref and Version are the outstanding reference and the version its
	// store produces. Waiting is set by the agent while a remote
	// transaction for it is in flight.
	Ref     addr.Ref
	Version uint64
	Waiting bool
	done    func(uint64) // non-nil from Begin until the completion event ran
}

// Init fills a freshly allocated base and attaches h — the agent embedding
// it — to the network at the cache's node (nil h: an agent that is never
// sent a message). store must be a cache dedicated to this agent.
func (b *AgentBase) Init(cfg AgentConfig, kernel *sim.Kernel, net network.Network, store *cache.Cache, h network.Handler) {
	if err := cfg.Topo.Validate(); err != nil {
		panic(err)
	}
	if cfg.Index < 0 || cfg.Index >= cfg.Topo.Caches {
		panic(fmt.Sprintf("proto: agent index %d outside [0,%d)", cfg.Index, cfg.Topo.Caches))
	}
	b.AgentConfig, b.Kernel, b.Net, b.store = cfg, kernel, net, store
	if h != nil {
		net.Attach(b.Node(), h)
	}
}

// Reset restores the base to its freshly-constructed state under cfg,
// keeping the network attachment (Index and Topo are machine shape and
// must match construction). The cache store is reset separately by its
// owner.
func (b *AgentBase) Reset(cfg AgentConfig) {
	if cfg.Index != b.Index || cfg.Topo != b.Topo {
		panic(fmt.Sprintf("proto: agent Reset shape (%d,%+v) differs from construction (%d,%+v)",
			cfg.Index, cfg.Topo, b.Index, b.Topo))
	}
	*b = AgentBase{AgentConfig: cfg, Kernel: b.Kernel, Net: b.Net, store: b.store}
}

// Store implements CacheSide.
func (b *AgentBase) Store() *cache.Cache { return b.store }

// SideStats implements CacheSide.
func (b *AgentBase) SideStats() *CacheSideStats { return &b.Stats }

// Busy reports whether a remote transaction is outstanding.
func (b *AgentBase) Busy() bool { return b.Waiting }

// Node is the agent's network node.
func (b *AgentBase) Node() network.NodeID { return b.Topo.CacheNode(b.Index) }

// Send sends m from the agent's node.
func (b *AgentBase) Send(dst network.NodeID, m msg.Message) { b.Net.Send(b.Node(), dst, m) }

// Committed reports a store's linearization to the oracle hook, if any.
func (b *AgentBase) Committed(block addr.Block, v uint64) {
	if b.Commit != nil {
		b.Commit(block, v)
	}
}

// Begin records a new processor reference and counts it. It panics if one
// is already outstanding: the simulated processors block on memory
// accesses, and an overlap always indicates a harness bug.
func (b *AgentBase) Begin(ref addr.Ref, writeVersion uint64, done func(uint64)) {
	if b.Waiting || b.done != nil {
		panic(fmt.Sprintf("proto: cache %d: overlapping references", b.Index))
	}
	if done == nil {
		panic("proto: nil done callback")
	}
	b.Ref, b.Version, b.done = ref, writeVersion, done
	b.Stats.References.Inc()
	if ref.Write {
		b.Stats.Writes.Inc()
	} else {
		b.Stats.Reads.Inc()
	}
}

// Complete runs done(v) after the hit/fill latency — the single
// completion path all references share. The deferral rides the kernel's
// pooled event form on the base itself: the processor blocks until done
// runs, so the one slot is enough.
func (b *AgentBase) Complete(v uint64) {
	b.Kernel.AfterCall(b.Lat.CacheHit, b, v, 0)
}

// Call implements sim.Caller: the completion event scheduled by Complete.
// v is the value returned to the processor.
func (b *AgentBase) Call(v, _ uint64) {
	done := b.done
	b.done = nil
	done(v)
}

// CtrlConfig configures a memory controller of any protocol. Module, Topo
// and Space are machine shape; the rest are values a Reset may change.
type CtrlConfig struct {
	Module int // which memory module this controller serves
	Topo   Topology
	Space  addr.Space
	Lat    Latencies
	// Commit is the oracle hook for writes that linearize at the
	// controller; may be nil.
	Commit CommitFunc
	// Mode is the §3.2.5 serializer design. Directory controllers only.
	Mode ConcurrencyMode
	// TranslationBufferSize enables the §4.4 owner cache when > 0. The
	// two-bit directory only.
	TranslationBufferSize int
	// Obs is the observability recorder; nil leaves the controller
	// uninstrumented at zero cost. Directory controllers only.
	Obs *obs.Recorder
	// Hooks injects deliberate protocol defects into the two-bit
	// directory controller. Production configurations leave it nil.
	Hooks *BugHooks
}

// BugHooks disables individual defenses of the two-bit directory
// controller, one per field — a test-only surface for internal/mcheck,
// which must demonstrate that removing a defense yields a counterexample
// (or, for the defenses that are performance optimizations backed by a
// deeper defense, that it does not). A nil *BugHooks is the production
// configuration.
type BugHooks struct {
	// SkipWriteMissInvalidate drops the §3.2.3 invalidation on a write
	// miss to a Present1/Present* block: the writer is granted the block
	// while stale clean copies survive — a single-writer violation.
	SkipWriteMissInvalidate bool
	// SkipStashedPutConsume makes the controller ignore stashed puts when
	// a transaction needs data (§3.2.5 EJECT × BROADQUERY): the query
	// broadcast finds no owner (it already evicted) and the transaction
	// waits forever — a deadlock.
	SkipStashedPutConsume bool
	// SkipMRequestQueueDelete drops the §3.2.5 "deletes MREQUEST(j,a)
	// from the queue" rule. The deny-on-service path and the MACK
	// confirmation still defend the directory, so this one should yield
	// no counterexample — the deletion is an optimization.
	SkipMRequestQueueDelete bool
}

// CtrlBase is what every per-module memory controller is built on: its
// identity and timing, its kernel, network and memory module, and the
// protocol counters. Controllers embed it and add their protocol's
// transactions.
type CtrlBase struct {
	CtrlConfig
	Kernel *sim.Kernel
	Net    network.Network
	Mem    *memory.Module
	Stats  CtrlStats
}

// Init fills a freshly allocated base and attaches h — the controller
// embedding it — to the network at the module's node.
func (c *CtrlBase) Init(cfg CtrlConfig, kernel *sim.Kernel, net network.Network, mem *memory.Module, h network.Handler) {
	if err := cfg.Topo.Validate(); err != nil {
		panic(err)
	}
	if err := cfg.Space.Validate(); err != nil {
		panic(err)
	}
	c.CtrlConfig, c.Kernel, c.Net, c.Mem = cfg, kernel, net, mem
	net.Attach(c.Node(), h)
}

// Reset restores the base and its memory module to their
// freshly-constructed state under cfg, keeping the network attachment
// (Module, Topo and Space are machine shape and must match construction).
func (c *CtrlBase) Reset(cfg CtrlConfig) {
	if cfg.Module != c.Module || cfg.Topo != c.Topo || cfg.Space != c.Space {
		panic(fmt.Sprintf("proto: controller %d Reset shape differs from construction", c.Module))
	}
	c.CtrlConfig = cfg
	c.Stats = CtrlStats{}
	c.Mem.Reset(cfg.Lat.Memory)
}

// CtrlStats implements MemSide.
func (c *CtrlBase) CtrlStats() *CtrlStats { return &c.Stats }

// MemVersion returns memory's version of b, for invariants.
func (c *CtrlBase) MemVersion(b addr.Block) uint64 { return c.Mem.Read(b) }

// Node is the controller's network node.
func (c *CtrlBase) Node() network.NodeID { return c.Topo.CtrlNode(c.Module) }

// Send sends m from the controller's node.
func (c *CtrlBase) Send(dst network.NodeID, m msg.Message) { c.Net.Send(c.Node(), dst, m) }

// Committed reports a write's linearization to the oracle hook, if any.
func (c *CtrlBase) Committed(block addr.Block, v uint64) {
	if c.Commit != nil {
		c.Commit(block, v)
	}
}

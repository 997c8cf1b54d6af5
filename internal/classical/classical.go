// Package classical implements the §2.3 "classical" solution used by the
// dual-processor IBM 370/168 and 3033: caches are write-through, and every
// write broadcasts an invalidation to all other caches. No directory of
// any kind exists; main memory is always up to date.
//
// To keep the scheme coherent in a network with latency (rather than a
// single synchronous backplane), a write completes only after every other
// cache has acknowledged the invalidation — the store is "performed" at
// the memory controller once all acknowledgements are in, which makes the
// scheme linearizable and lets the shared oracle verify it. This ack
// traffic is part of why the paper calls the method's degradation with n
// "the most damaging drawback".
//
// The optional BIAS filter (§2.3's reference to a "BIAS memory") lets a
// cache skip the directory lookup for repeated invalidations of the block
// it most recently invalidated.
package classical

import (
	"fmt"

	"twobit/internal/addr"
	"twobit/internal/cache"
	"twobit/internal/memory"
	"twobit/internal/msg"
	"twobit/internal/network"
	"twobit/internal/proto"
	"twobit/internal/sim"
)

// AgentConfig configures a classical cache agent.
type AgentConfig struct {
	Index int
	Topo  proto.Topology
	Lat   proto.Latencies
	// BiasFilter enables the repeated-invalidation filter.
	BiasFilter bool
}

// Agent is a write-through, no-write-allocate cache.
type Agent struct {
	cfg    AgentConfig
	kernel *sim.Kernel
	net    network.Network
	store  *cache.Cache
	stats  proto.CacheSideStats

	pend     *pendingOp
	lastInv  addr.Block // BIAS memory: last invalidated block
	hasLast  bool
	Filtered uint64 // invalidations short-circuited by the BIAS filter
}

type pendingOp struct {
	ref  addr.Ref
	done func(uint64)
}

// NewAgent wires a classical cache to the network.
func NewAgent(cfg AgentConfig, kernel *sim.Kernel, net network.Network, store *cache.Cache) *Agent {
	a := &Agent{cfg: cfg, kernel: kernel, net: net, store: store}
	net.Attach(cfg.Topo.CacheNode(cfg.Index), a)
	return a
}

// Reset restores the agent to its freshly-constructed state under cfg,
// keeping the network attachment (Index and Topo must match
// construction). The cache store is reset separately by its owner.
func (a *Agent) Reset(cfg AgentConfig) {
	if cfg.Index != a.cfg.Index || cfg.Topo != a.cfg.Topo {
		panic("classical: Agent.Reset shape differs from construction")
	}
	a.cfg = cfg
	a.stats = proto.CacheSideStats{}
	a.pend = nil
	a.lastInv = 0
	a.hasLast = false
	a.Filtered = 0
}

// Store implements proto.CacheSide.
func (a *Agent) Store() *cache.Cache { return a.store }

// SideStats implements proto.CacheSide.
func (a *Agent) SideStats() *proto.CacheSideStats { return &a.stats }

func (a *Agent) node() network.NodeID { return a.cfg.Topo.CacheNode(a.cfg.Index) }

// Access implements proto.CacheSide.
func (a *Agent) Access(ref addr.Ref, writeVersion uint64, done func(uint64)) {
	if a.pend != nil {
		panic(fmt.Sprintf("classical: cache %d: overlapping references", a.cfg.Index))
	}
	a.stats.References.Inc()
	if ref.Write {
		a.stats.Writes.Inc()
		// Write-through: every store goes to memory; completion arrives
		// after all other caches acknowledged the invalidation.
		a.pend = &pendingOp{ref: ref, done: done}
		a.net.Send(a.node(), a.cfg.Topo.CtrlFor(ref.Block), msg.Message{
			Kind: msg.KindWriteThrough, Block: ref.Block, Cache: a.cfg.Index, Data: writeVersion,
		})
		return
	}
	a.stats.Reads.Inc()
	if f := a.store.Access(ref.Block); f != nil {
		v := f.Data
		a.kernel.After(a.cfg.Lat.CacheHit, func() { done(v) })
		return
	}
	a.pend = &pendingOp{ref: ref, done: done}
	a.net.Send(a.node(), a.cfg.Topo.CtrlFor(ref.Block), msg.Message{
		Kind: msg.KindRequest, Block: ref.Block, Cache: a.cfg.Index, RW: msg.Read,
	})
}

// Deliver implements network.Handler.
func (a *Agent) Deliver(src network.NodeID, m msg.Message) {
	switch m.Kind {
	case msg.KindInvAll:
		a.stats.CommandsReceived.Inc()
		if a.cfg.BiasFilter && a.hasLast && a.lastInv == m.Block && a.store.Lookup(m.Block) == nil {
			// The BIAS memory filters the repeated invalidation: no
			// directory cycle is stolen.
			a.Filtered++
		} else if f := a.store.Snoop(m.Block); f != nil {
			a.store.Invalidate(m.Block)
			a.stats.InvalidationsApplied.Inc()
		} else {
			a.stats.UselessCommands.Inc()
		}
		a.lastInv, a.hasLast = m.Block, true
		// Acknowledge so the writer's store can complete.
		a.net.Send(a.node(), src, msg.Message{Kind: msg.KindInvAck, Block: m.Block, Cache: a.cfg.Index})
	case msg.KindGet:
		if a.pend == nil {
			panic(fmt.Sprintf("classical: cache %d: unsolicited %v", a.cfg.Index, m))
		}
		p := a.pend
		a.pend = nil
		if p.ref.Write {
			// Write completion. Write-through no-write-allocate: update a
			// present copy, never fill on a write miss.
			if f := a.store.Lookup(p.ref.Block); f != nil {
				f.Data = m.Data
			}
			a.kernel.After(a.cfg.Lat.CacheHit, func() { p.done(m.Data) })
			return
		}
		victim := a.store.Victim(p.ref.Block)
		if victim.Valid {
			a.stats.EvictionsClean.Inc() // write-through frames are never dirty
		}
		a.store.Fill(victim, p.ref.Block, m.Data)
		a.kernel.After(a.cfg.Lat.CacheHit, func() { p.done(m.Data) })
	default:
		panic(fmt.Sprintf("classical: cache %d: unexpected %v", a.cfg.Index, m))
	}
}

// Config configures a classical memory controller.
type Config struct {
	Module int
	Topo   proto.Topology
	Space  addr.Space
	Lat    proto.Latencies
	Commit proto.CommitFunc
}

// Controller is the memory side: it applies write-throughs, broadcasts
// invalidations, gates write completion on the acknowledgements, and
// serves read misses.
type Controller struct {
	cfg    Config
	kernel *sim.Kernel
	net    network.Network
	mem    *memory.Module
	stats  proto.CtrlStats

	// pending write-throughs awaiting acks, per block (serialized per
	// block: a second write to the same block queues).
	writes map[addr.Block][]*wtState
	// reads queued behind pending writes on the same block: serving them
	// from stale memory would install a copy the in-flight invalidation
	// has already passed by.
	reads map[addr.Block][]int
	// readsInFlight gates writes: a read being served (its get not yet
	// sent, delayed by the memory latency) must not be overtaken by an
	// invalidation broadcast, or the freshly filled copy would escape it.
	readsInFlight map[addr.Block]int
}

type wtState struct {
	cache   int
	version uint64
	acks    int
	need    int
}

// New wires a classical controller to the network.
func New(cfg Config, kernel *sim.Kernel, net network.Network, mem *memory.Module) *Controller {
	c := &Controller{
		cfg: cfg, kernel: kernel, net: net, mem: mem,
		writes:        make(map[addr.Block][]*wtState),
		reads:         make(map[addr.Block][]int),
		readsInFlight: make(map[addr.Block]int),
	}
	net.Attach(cfg.Topo.CtrlNode(cfg.Module), c)
	return c
}

// Reset restores the controller to its freshly-constructed state under
// cfg, keeping the network attachment (Module, Topo and Space must match
// construction).
func (c *Controller) Reset(cfg Config) {
	if cfg.Module != c.cfg.Module || cfg.Topo != c.cfg.Topo || cfg.Space != c.cfg.Space {
		panic("classical: Controller.Reset shape differs from construction")
	}
	c.cfg = cfg
	c.stats = proto.CtrlStats{}
	clear(c.writes)
	clear(c.reads)
	clear(c.readsInFlight)
}

// CtrlStats implements proto.MemSide.
func (c *Controller) CtrlStats() *proto.CtrlStats { return &c.stats }

// MemVersion returns memory's version of b, for invariants.
func (c *Controller) MemVersion(b addr.Block) uint64 { return c.mem.Read(b) }

// Quiescent reports whether no write-through or read is in flight.
func (c *Controller) Quiescent() bool { return len(c.writes) == 0 && len(c.readsInFlight) == 0 }

func (c *Controller) node() network.NodeID { return c.cfg.Topo.CtrlNode(c.cfg.Module) }

// Deliver implements network.Handler.
func (c *Controller) Deliver(src network.NodeID, m msg.Message) {
	switch m.Kind {
	case msg.KindRequest: // read miss
		c.stats.Requests.Inc()
		c.stats.ReadMisses.Inc()
		if len(c.writes[m.Block]) > 0 {
			c.reads[m.Block] = append(c.reads[m.Block], m.Cache)
			return
		}
		c.serveRead(m.Block, m.Cache)
	case msg.KindWriteThrough:
		c.stats.Requests.Inc()
		c.stats.WriteMisses.Inc() // every write is a memory write here
		q := c.writes[m.Block]
		c.writes[m.Block] = append(q, &wtState{cache: m.Cache, version: m.Data, need: c.cfg.Topo.Caches - 1})
		if len(q) == 0 && c.readsInFlight[m.Block] == 0 {
			c.launch(m.Block)
		}
	case msg.KindInvAck:
		c.ack(m.Block)
	default:
		panic(fmt.Sprintf("classical: controller %d: unexpected %v", c.cfg.Module, m))
	}
}

// launch broadcasts the invalidation for the head write on block b.
func (c *Controller) launch(b addr.Block) {
	st := c.writes[b][0]
	if st.need == 0 {
		// Single-processor system: complete immediately.
		c.complete(b)
		return
	}
	c.stats.Broadcasts.Inc()
	c.net.Broadcast(c.node(), msg.Message{Kind: msg.KindInvAll, Block: b, Cache: st.cache},
		c.exceptList(st.cache)...)
}

func (c *Controller) ack(b addr.Block) {
	q := c.writes[b]
	if len(q) == 0 {
		panic(fmt.Sprintf("classical: controller %d: stray ack for %v", c.cfg.Module, b))
	}
	st := q[0]
	st.acks++
	if st.acks == st.need {
		c.complete(b)
	}
}

// complete performs the memory write (the store's linearization point),
// notifies the writer, and launches the next queued write on the block.
func (c *Controller) complete(b addr.Block) {
	st := c.writes[b][0]
	c.kernel.After(c.cfg.Lat.Memory, func() {
		c.mem.Write(b, st.version)
		if c.cfg.Commit != nil {
			c.cfg.Commit(b, st.version)
		}
		c.net.Send(c.node(), c.cfg.Topo.CacheNode(st.cache), msg.Message{
			Kind: msg.KindGet, Block: b, Cache: st.cache, Data: st.version,
		})
		q := c.writes[b][1:]
		if len(q) == 0 {
			delete(c.writes, b)
			for _, k := range c.reads[b] {
				c.serveRead(b, k)
			}
			delete(c.reads, b)
		} else {
			c.writes[b] = q
			c.launch(b)
		}
	})
}

// serveRead answers a read miss from (now up-to-date) memory, holding any
// write on the block back until the get is on the wire.
func (c *Controller) serveRead(b addr.Block, k int) {
	c.readsInFlight[b]++
	c.kernel.After(c.cfg.Lat.Memory, func() {
		c.net.Send(c.node(), c.cfg.Topo.CacheNode(k), msg.Message{
			Kind: msg.KindGet, Block: b, Cache: k, Data: c.mem.Read(b),
		})
		c.readsInFlight[b]--
		if c.readsInFlight[b] == 0 {
			delete(c.readsInFlight, b)
			if len(c.writes[b]) > 0 {
				c.launch(b)
			}
		}
	})
}

// exceptList excludes the writing cache and the other controllers from an
// invalidation broadcast.
func (c *Controller) exceptList(k int) []network.NodeID {
	except := []network.NodeID{c.cfg.Topo.CacheNode(k)}
	for j := 0; j < c.cfg.Topo.Modules; j++ {
		if j != c.cfg.Module {
			except = append(except, c.cfg.Topo.CtrlNode(j))
		}
	}
	return except
}

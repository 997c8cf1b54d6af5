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
	"math"

	"twobit/internal/addr"
	"twobit/internal/cache"
	"twobit/internal/memory"
	"twobit/internal/msg"
	"twobit/internal/network"
	"twobit/internal/proto"
	"twobit/internal/sim"
)

// Agent is a write-through, no-write-allocate cache.
type Agent struct {
	proto.AgentBase

	lastInv  addr.Block // BIAS memory: last invalidated block
	hasLast  bool
	Filtered uint64 // invalidations short-circuited by the BIAS filter
}

// NewAgent wires a classical cache to the network.
func NewAgent(cfg proto.AgentConfig, kernel *sim.Kernel, net network.Network, store *cache.Cache) *Agent {
	a := &Agent{}
	a.Init(cfg, kernel, net, store, a)
	return a
}

// Reset restores the agent to its freshly-constructed state under cfg
// (see proto.AgentBase.Reset).
func (a *Agent) Reset(cfg proto.AgentConfig) {
	a.AgentBase.Reset(cfg)
	a.lastInv, a.hasLast, a.Filtered = 0, false, 0
}

// Access implements proto.CacheSide.
func (a *Agent) Access(ref addr.Ref, writeVersion uint64, done func(uint64)) {
	a.Begin(ref, writeVersion, done)
	if ref.Write {
		// Write-through: every store goes to memory; completion arrives
		// after all other caches acknowledged the invalidation.
		a.Waiting = true
		a.Send(a.Topo.CtrlFor(ref.Block), msg.Message{
			Kind: msg.KindWriteThrough, Block: ref.Block, Cache: a.Index, Data: writeVersion,
		})
		return
	}
	if f := a.Store().Access(ref.Block); f != nil {
		a.Complete(f.Data)
		return
	}
	a.Waiting = true
	a.Send(a.Topo.CtrlFor(ref.Block), msg.Message{
		Kind: msg.KindRequest, Block: ref.Block, Cache: a.Index, RW: msg.Read,
	})
}

// Deliver implements network.Handler.
func (a *Agent) Deliver(src network.NodeID, m msg.Message) {
	switch m.Kind {
	case msg.KindInvAll:
		a.Stats.CommandsReceived.Inc()
		if a.BiasFilter && a.hasLast && a.lastInv == m.Block && a.Store().Lookup(m.Block) == nil {
			// The BIAS memory filters the repeated invalidation: no
			// directory cycle is stolen.
			a.Filtered++
		} else if f := a.Store().Snoop(m.Block); f != nil {
			a.Store().Invalidate(m.Block)
			a.Stats.InvalidationsApplied.Inc()
		} else {
			a.Stats.UselessCommands.Inc()
		}
		a.lastInv, a.hasLast = m.Block, true
		// Acknowledge so the writer's store can complete.
		a.Send(src, msg.Message{Kind: msg.KindInvAck, Block: m.Block, Cache: a.Index})
	case msg.KindGet:
		if !a.Waiting {
			panic(fmt.Sprintf("classical: cache %d: unsolicited %v", a.Index, m))
		}
		a.Waiting = false
		b := a.Ref.Block
		if a.Ref.Write {
			// Write completion. Write-through no-write-allocate: update a
			// present copy, never fill on a write miss.
			if f := a.Store().Lookup(b); f != nil {
				f.Data = m.Data
			}
		} else {
			victim := a.Store().Victim(b)
			if victim.Valid {
				a.Stats.EvictionsClean.Inc() // write-through frames are never dirty
			}
			a.Store().Fill(victim, b, m.Data)
		}
		a.Complete(m.Data)
	default:
		panic(fmt.Sprintf("classical: cache %d: unexpected %v", a.Index, m))
	}
}

// Controller is the memory side: it applies write-throughs, broadcasts
// invalidations, gates write completion on the acknowledgements, and
// serves read misses.
type Controller struct {
	proto.CtrlBase

	// blocks holds a blockState for every block with a write-through or a
	// read in flight.
	blocks proto.BlockTable[blockState]

	// except is the invalidation broadcast's exclusion list — the writing
	// cache, patched in per broadcast, then the other controllers.
	// Broadcast consumes it synchronously, so one buffer suffices.
	except []network.NodeID
}

// blockState is what the controller holds about one block with work in
// flight.
type blockState struct {
	// writes are the pending write-throughs, serialized per block: the
	// head is awaiting acks (it has acks of them) or, with all in, its
	// memory write; a second write to the block queues behind it.
	writes []write
	acks   int
	// reads are caches whose read misses wait behind writes: serving them
	// from stale memory would install a copy the in-flight invalidation
	// has already passed by.
	reads []int
	// readsInFlight gates writes: a read being served (its get not yet
	// sent, delayed by the memory latency) must not be overtaken by an
	// invalidation broadcast, or the freshly filled copy would escape it.
	readsInFlight int
}

type write struct {
	cache   int
	version uint64
}

// New wires a classical controller to the network.
func New(cfg proto.CtrlConfig, kernel *sim.Kernel, net network.Network, mem *memory.Module) *Controller {
	c := &Controller{
		blocks: proto.NewBlockTable[blockState](cfg.Space, cfg.Module),
		except: make([]network.NodeID, 1, cfg.Topo.Modules),
	}
	c.Init(cfg, kernel, net, mem, c)
	for j := 0; j < cfg.Topo.Modules; j++ {
		if j != cfg.Module {
			c.except = append(c.except, cfg.Topo.CtrlNode(j))
		}
	}
	return c
}

// Reset restores the controller to its freshly-constructed state under
// cfg (see proto.CtrlBase.Reset).
func (c *Controller) Reset(cfg proto.CtrlConfig) {
	c.CtrlBase.Reset(cfg)
	c.blocks.ReleaseAll(func(st *blockState) { // only a failed run leaves any
		*st = blockState{writes: st.writes[:0], reads: st.reads[:0]}
	})
}

// Quiescent reports whether no write-through or read is in flight.
func (c *Controller) Quiescent() bool { return c.blocks.Len() == 0 }

// idle releases block b's state st once nothing is in flight on it.
func (c *Controller) idle(b addr.Block, st *blockState) {
	if len(st.writes) == 0 && st.readsInFlight == 0 {
		c.blocks.Release(b)
	}
}

// Deliver implements network.Handler.
func (c *Controller) Deliver(src network.NodeID, m msg.Message) {
	switch m.Kind {
	case msg.KindRequest: // read miss
		c.Stats.Requests.Inc()
		c.Stats.ReadMisses.Inc()
		if st := c.blocks.Rec(m.Block); st != nil && len(st.writes) > 0 {
			st.reads = append(st.reads, m.Cache)
			return
		}
		c.serveRead(m.Block, m.Cache)
	case msg.KindWriteThrough:
		c.Stats.Requests.Inc()
		c.Stats.WriteMisses.Inc() // every write is a memory write here
		st := c.blocks.Track(m.Block)
		st.writes = append(st.writes, write{cache: m.Cache, version: m.Data})
		if len(st.writes) == 1 && st.readsInFlight == 0 {
			c.launch(m.Block)
		}
	case msg.KindInvAck:
		st := c.blocks.Rec(m.Block)
		if st == nil || len(st.writes) == 0 {
			panic(fmt.Sprintf("classical: controller %d: stray ack for %v", c.Module, m.Block))
		}
		st.acks++
		if st.acks == c.Topo.Caches-1 {
			c.complete(m.Block)
		}
	default:
		panic(fmt.Sprintf("classical: controller %d: unexpected %v", c.Module, m))
	}
}

// launch broadcasts the invalidation for the head write on block b.
func (c *Controller) launch(b addr.Block) {
	if c.Topo.Caches == 1 {
		// Single-processor system: complete immediately.
		c.complete(b)
		return
	}
	k := c.blocks.Rec(b).writes[0].cache
	c.Stats.Broadcasts.Inc()
	c.except[0] = c.Topo.CacheNode(k)
	c.Net.Broadcast(c.Node(), msg.Message{Kind: msg.KindInvAll, Block: b, Cache: k}, c.except...)
}

// headWrite as the cache argument of a memory event selects the head
// write's completion over a read's.
const headWrite = math.MaxUint64

// complete starts the memory write of block b's head write, whose
// invalidation every other cache has acknowledged.
func (c *Controller) complete(b addr.Block) {
	c.Kernel.AfterCall(c.Lat.Memory, c, uint64(b), headWrite)
}

// serveRead answers cache k's read miss from (now up-to-date) memory,
// holding any write on the block back until the get is on the wire.
func (c *Controller) serveRead(b addr.Block, k int) {
	c.blocks.Track(b).readsInFlight++
	c.Kernel.AfterCall(c.Lat.Memory, c, uint64(b), uint64(k))
}

// Call implements sim.Caller: the memory access scheduled by complete or
// serveRead has finished.
func (c *Controller) Call(block, k uint64) {
	b := addr.Block(block)
	st := c.blocks.Rec(b)
	if k != headWrite {
		c.Send(c.Topo.CacheNode(int(k)), msg.Message{
			Kind: msg.KindGet, Block: b, Cache: int(k), Data: c.Mem.Read(b),
		})
		st.readsInFlight--
		if st.readsInFlight == 0 && len(st.writes) > 0 {
			c.launch(b)
		}
		c.idle(b, st)
		return
	}
	// The memory write is the store's linearization point: perform it,
	// notify the writer, and launch the next queued write on the block —
	// or, with none, serve the reads that waited.
	w := st.writes[0]
	c.Mem.Write(b, w.version)
	c.Committed(b, w.version)
	c.Send(c.Topo.CacheNode(w.cache), msg.Message{
		Kind: msg.KindGet, Block: b, Cache: w.cache, Data: w.version,
	})
	st.writes = st.writes[:copy(st.writes, st.writes[1:])]
	st.acks = 0
	if len(st.writes) > 0 {
		c.launch(b)
		return
	}
	for _, k := range st.reads {
		c.serveRead(b, k)
	}
	st.reads = st.reads[:0]
	c.idle(b, st)
}

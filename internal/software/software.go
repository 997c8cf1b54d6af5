// Package software implements the static, software-enforced solution of
// §2.2: every memory block is tagged (at compile/link time, modeled by the
// workload's Shared annotation) as private or public. Private blocks are
// cached write-back as usual; public (writeable shared) blocks are never
// loaded into any cache — "on a cache miss to a public block, no loading in
// the cache takes place, and hence the public data is always up-to-date in
// main memory". There is no coherence machinery at all; the cost is a full
// memory round trip on every shared reference.
package software

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

// Agent caches private blocks write-back and bypasses the cache for shared
// blocks.
type Agent struct {
	proto.AgentBase
}

// NewAgent wires the agent to the network.
func NewAgent(cfg proto.AgentConfig, kernel *sim.Kernel, net network.Network, store *cache.Cache) *Agent {
	a := &Agent{}
	a.Init(cfg, kernel, net, store, a)
	return a
}

// Access implements proto.CacheSide.
func (a *Agent) Access(ref addr.Ref, writeVersion uint64, done func(uint64)) {
	a.Begin(ref, writeVersion, done)
	ctrl := a.Topo.CtrlFor(ref.Block)
	if ref.Shared {
		// Public block: uncached, always served by memory.
		a.Waiting = true
		kind := msg.KindUncachedRead
		if ref.Write {
			kind = msg.KindUncachedWrite
		}
		a.Send(ctrl, msg.Message{
			Kind: kind, Block: ref.Block, Cache: a.Index, Data: writeVersion,
		})
		return
	}
	// Private block: ordinary uniprocessor write-back cache behavior.
	if f := a.Store().Access(ref.Block); f != nil {
		if ref.Write {
			a.write(f)
			return
		}
		a.Complete(f.Data)
		return
	}
	a.evictFor(ref.Block)
	a.Waiting = true
	a.Send(ctrl, msg.Message{
		Kind: msg.KindRequest, Block: ref.Block, Cache: a.Index, RW: msg.Read,
	})
}

// write performs the outstanding private store on its frame.
func (a *Agent) write(f *cache.Frame) {
	f.Data = a.Version
	f.Modified = true
	a.Committed(a.Ref.Block, a.Version)
	a.Complete(a.Version)
}

func (a *Agent) evictFor(b addr.Block) {
	victim := a.Store().Victim(b)
	if !victim.Valid {
		return
	}
	old := victim.Block
	if victim.Modified {
		a.Stats.EvictionsDirty.Inc()
		ctrl := a.Topo.CtrlFor(old)
		a.Send(ctrl, msg.Message{Kind: msg.KindEject, Block: old, Cache: a.Index, RW: msg.Write})
		a.Send(ctrl, msg.Message{Kind: msg.KindPut, Block: old, Cache: a.Index, Data: victim.Data})
	} else {
		a.Stats.EvictionsClean.Inc()
	}
	a.Store().Evict(victim)
}

// Deliver implements network.Handler.
func (a *Agent) Deliver(src network.NodeID, m msg.Message) {
	if m.Kind != msg.KindGet {
		panic(fmt.Sprintf("software: cache %d: unexpected %v", a.Index, m))
	}
	if !a.Waiting {
		panic(fmt.Sprintf("software: cache %d: unsolicited %v", a.Index, m))
	}
	a.Waiting = false
	if a.Ref.Shared {
		// Uncached completion; nothing enters the cache.
		a.Complete(m.Data)
		return
	}
	b := a.Ref.Block
	a.evictFor(b)
	a.Store().Fill(a.Store().Victim(b), b, m.Data)
	if a.Ref.Write {
		a.write(a.Store().Lookup(b))
		return
	}
	a.Complete(m.Data)
}

// Controller serves uncached shared accesses and private fills/write-backs.
// Shared writes linearize at the controller on arrival, which (commands
// being processed atomically per delivery) keeps the scheme coherent
// without any protocol.
type Controller struct {
	proto.CtrlBase
}

// New wires the controller to the network.
func New(cfg proto.CtrlConfig, kernel *sim.Kernel, net network.Network, mem *memory.Module) *Controller {
	c := &Controller{}
	c.Init(cfg, kernel, net, mem, c)
	return c
}

// Quiescent is always true: the controller holds nothing between a
// command and its reply but the reply's kernel event.
func (c *Controller) Quiescent() bool { return true }

// reply sends get(k, b, v) after the memory latency; the event carries all
// three, the block and the cache packed into one argument (a machine has
// at most 64 caches).
func (c *Controller) reply(k int, b addr.Block, v uint64) {
	c.Kernel.AfterCall(c.Lat.Memory, c, uint64(b)<<8|uint64(k), v)
}

// Call implements sim.Caller: the reply scheduled by reply is due.
func (c *Controller) Call(to, v uint64) {
	k, b := int(to&0xff), addr.Block(to>>8)
	c.Send(c.Topo.CacheNode(k), msg.Message{Kind: msg.KindGet, Block: b, Cache: k, Data: v})
}

// Deliver implements network.Handler.
func (c *Controller) Deliver(src network.NodeID, m msg.Message) {
	switch m.Kind {
	case msg.KindUncachedRead:
		c.Stats.Requests.Inc()
		c.Stats.ReadMisses.Inc()
		c.reply(m.Cache, m.Block, c.Mem.Read(m.Block))
	case msg.KindUncachedWrite:
		c.Stats.Requests.Inc()
		c.Stats.WriteMisses.Inc()
		// Linearization point: the write is performed on arrival.
		c.Mem.Write(m.Block, m.Data)
		c.Committed(m.Block, m.Data)
		c.reply(m.Cache, m.Block, m.Data)
	case msg.KindRequest: // private fill
		c.Stats.Requests.Inc()
		c.reply(m.Cache, m.Block, c.Mem.Read(m.Block))
	case msg.KindEject:
		c.Stats.Ejects.Inc() // data arrives in the following put
	case msg.KindPut:
		c.Mem.Write(m.Block, m.Data)
	default:
		panic(fmt.Sprintf("software: controller %d: unexpected %v", c.Module, m))
	}
}

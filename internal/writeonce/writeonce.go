// Package writeonce implements Goodman's "write-once" bus scheme (§2.5) —
// the paper's representative of the bus-based solutions that distribute the
// global map over the local caches. Each frame is Invalid, Valid,
// Reserved (written once; memory still current) or Dirty (only valid
// copy); every cache snoops every bus transaction and takes action if it
// holds the block.
//
// Bus transactions are modeled atomically: a transaction reserves a bus
// slot (serializing against all other traffic) and its effects — snoops,
// invalidations, data supply from a dirty owner, the memory update — are
// applied in one simulation event at the slot's time. This matches the
// synchronous backplane the scheme assumes and makes every transaction a
// linearization point. Frame mapping: Reserved ⇔ Exclusive && !Modified,
// Dirty ⇔ Modified.
package writeonce

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

// System is the shared bus plus the memory modules: the "memory side" of
// the protocol. All agents transact through it.
type System struct {
	cfg    proto.CtrlConfig // Module is unused: one System serves every module
	kernel *sim.Kernel
	bus    *network.Bus
	mem    []*memory.Module
	agents []*Agent
	stats  proto.CtrlStats
}

// NewSystem builds the bus system. bus must be the machine's network.
func NewSystem(cfg proto.CtrlConfig, kernel *sim.Kernel, bus *network.Bus) *System {
	s := &System{cfg: cfg, kernel: kernel, bus: bus}
	for j := 0; j < cfg.Space.Modules; j++ {
		s.mem = append(s.mem, memory.NewModule(cfg.Space, j, cfg.Lat.Memory))
	}
	return s
}

// Reset restores the bus system to its freshly-constructed state under cfg
// (Topo and Space must match construction), reusing the memory modules.
// Its agents are reset separately by their owner.
func (s *System) Reset(cfg proto.CtrlConfig) {
	if cfg.Topo != s.cfg.Topo || cfg.Space != s.cfg.Space {
		panic("writeonce: Reset shape differs from construction")
	}
	s.cfg = cfg
	s.stats = proto.CtrlStats{}
	for _, m := range s.mem {
		m.Reset(cfg.Lat.Memory)
	}
}

// CtrlStats implements proto.MemSide.
func (s *System) CtrlStats() *proto.CtrlStats { return &s.stats }

// MemVersion returns memory's version of b, for invariants.
func (s *System) MemVersion(b addr.Block) uint64 { return s.memRead(b) }

// Quiescent is always true: between slots the bus holds nothing but the
// slots' kernel events.
func (s *System) Quiescent() bool { return true }

// Deliver implements network.Handler; the atomic-bus model never sends the
// system a message.
func (s *System) Deliver(src network.NodeID, m msg.Message) {
	panic(fmt.Sprintf("writeonce: unexpected message %v", m))
}

func (s *System) memWrite(b addr.Block, v uint64) {
	s.mem[b.Module(s.cfg.Space.Modules)].Write(b, v)
}

func (s *System) memRead(b addr.Block) uint64 {
	return s.mem[b.Module(s.cfg.Space.Modules)].Read(b)
}

// Agent is one processor-cache pair on the bus.
type Agent struct {
	proto.AgentBase
	sys *System
}

// NewAgent creates the agent cfg describes with the given cache and
// registers it on the bus system. It is not attached to the network: the
// atomic-bus model sends no messages.
func NewAgent(sys *System, cfg proto.AgentConfig, store *cache.Cache) *Agent {
	a := &Agent{sys: sys}
	a.Init(cfg, sys.kernel, sys.bus, store, nil)
	sys.agents = append(sys.agents, a)
	return a
}

// Deliver implements network.Handler; unused in the atomic-bus model.
func (a *Agent) Deliver(src network.NodeID, m msg.Message) {
	panic(fmt.Sprintf("writeonce: cache %d: unexpected %v", a.Index, m))
}

// Access implements proto.CacheSide.
func (a *Agent) Access(ref addr.Ref, writeVersion uint64, done func(uint64)) {
	a.Begin(ref, writeVersion, done)
	f := a.Store().Access(ref.Block)
	switch {
	case f == nil && ref.Write:
		a.writeMiss()
	case f == nil:
		a.Waiting = true
		a.evictFor(ref.Block)
		a.transact(msg.KindBusRead, ref.Block)
	case !ref.Write:
		a.Complete(f.Data)
	case f.Modified: // Dirty: write locally
		f.Data = writeVersion
		a.Committed(ref.Block, writeVersion)
		a.Complete(writeVersion)
	case f.Exclusive: // Reserved: silent upgrade to Dirty
		f.Modified = true
		f.Exclusive = false
		f.Data = writeVersion
		a.Stats.ExclusiveWrites.Inc()
		a.Committed(ref.Block, writeVersion)
		a.Complete(writeVersion)
	default: // Valid: the write-once transaction
		a.Waiting = true
		a.transact(msg.KindBusWriteOnce, ref.Block)
	}
}

// writeMiss starts the BusWrite (read-with-intent-to-modify) transaction
// for the outstanding store.
func (a *Agent) writeMiss() {
	a.Waiting = true
	a.evictFor(a.Ref.Block)
	a.transact(msg.KindBusWrite, a.Ref.Block)
}

// transact reserves a bus slot for a kind transaction on block b, which
// Call runs atomically at the slot's time, and counts the transaction and
// its snoops (every other cache watches the bus) into the bus statistics.
// The slot's event carries only kind and b: what a transaction writes and
// whom it completes is the agent's outstanding reference.
func (a *Agent) transact(kind msg.Kind, b addr.Block) {
	s := a.sys
	at := s.bus.Reserve()
	ns := s.bus.Stats()
	ns.Messages.Inc()
	ns.Broadcasts.Inc()
	// Every attached cache except the initiator snoops the slot.
	ns.BroadcastCopies.Add(uint64(len(s.agents) - 1))
	s.kernel.AtCall(at, a, uint64(kind), uint64(b))
}

// Call implements sim.Caller: the bus slot reserved by transact has come.
// It shadows the scaffold's Call, which stays the completion event
// (Complete schedules it on the embedded base).
func (a *Agent) Call(kind, block uint64) {
	b := addr.Block(block)
	switch k := msg.Kind(kind); k {
	case msg.KindBusFlush:
		a.busFlush(b)
	case msg.KindBusRead:
		a.busRead(b)
	case msg.KindBusWrite:
		a.busWrite(b)
	case msg.KindBusWriteOnce:
		a.busWriteOnce(b)
	default:
		panic(fmt.Sprintf("writeonce: cache %d: bus slot for %v", a.Index, k))
	}
}

// snoop is agent o watching another agent's slot on block b: it consults
// o's directory, applying the paper's stolen-cycle accounting, and returns
// the frame if o holds the block.
func (o *Agent) snoop(b addr.Block) *cache.Frame {
	o.Stats.CommandsReceived.Inc()
	f := o.Store().Snoop(b)
	if f == nil {
		o.Stats.UselessCommands.Inc()
	}
	return f
}

// evictFor frees a frame for block b, flushing a dirty victim over the
// bus. The dirty copy stays valid (and snoopable) until the flush wins the
// bus: invalidating it at issue time would let a read slot reserved
// earlier find neither the dirty copy nor up-to-date memory.
func (a *Agent) evictFor(b addr.Block) {
	victim := a.Store().Victim(b)
	if !victim.Valid {
		return
	}
	if victim.Modified {
		a.Stats.EvictionsDirty.Inc()
		a.transact(msg.KindBusFlush, victim.Block)
		return
	}
	a.Stats.EvictionsClean.Inc()
	a.Store().Evict(victim)
}

// busFlush is the BusFlush slot of a dirty victim. By now the copy may
// have been cleaned (a read snooped it) or taken (a write snooped it).
func (a *Agent) busFlush(old addr.Block) {
	f := a.Store().Lookup(old)
	if f == nil {
		return // a write transaction already took the block
	}
	if f.Modified {
		a.sys.memWrite(old, f.Data)
	}
	a.Store().Evict(f)
}

// busRead is the BusRead slot of a read miss.
func (a *Agent) busRead(b addr.Block) {
	s := a.sys
	s.stats.ReadMisses.Inc()
	data := s.memRead(b)
	for _, o := range s.agents {
		if o == a {
			continue
		}
		f := o.snoop(b)
		if f == nil {
			continue
		}
		if f.Modified {
			// The dirty owner supplies the block; memory is updated.
			data = f.Data
			s.memWrite(b, data)
			f.Modified = false
			o.Stats.QueriesAnswered.Inc()
		}
		f.Exclusive = false // Reserved → Valid on observed read
	}
	a.Store().Fill(a.Store().Victim(b), b, data)
	a.Waiting = false
	a.Complete(data)
}

// busWrite is the BusWrite slot of a write miss.
func (a *Agent) busWrite(b addr.Block) {
	s := a.sys
	s.stats.WriteMisses.Inc()
	for _, o := range s.agents {
		if o == a {
			continue
		}
		f := o.snoop(b)
		if f == nil {
			continue
		}
		if f.Modified {
			// Write the dirty data back before taking ownership.
			s.memWrite(b, f.Data)
			o.Stats.QueriesAnswered.Inc()
		}
		o.Store().Invalidate(b)
		o.Stats.InvalidationsApplied.Inc()
	}
	a.Store().Fill(a.Store().Victim(b), b, a.Version)
	a.Store().Lookup(b).Modified = true // Dirty
	a.Committed(b, a.Version)
	a.Waiting = false
	a.Complete(a.Version)
}

// busWriteOnce is the slot of the first write to a Valid block: the word
// is written through to memory and every other copy is invalidated; the
// frame becomes Reserved.
func (a *Agent) busWriteOnce(b addr.Block) {
	s := a.sys
	s.stats.MRequests.Inc() // the write-hit-on-unmodified equivalent
	f := a.Store().Lookup(b)
	if f == nil {
		// Our copy was invalidated by a transaction that won the bus
		// first (the §3.2.5 race, bus flavor). The slot is aborted
		// before touching anyone else's state — a new owner may hold
		// the block Dirty, and invalidating it here would destroy the
		// only valid copy. Retry as a write miss.
		a.Stats.Retries.Inc()
		a.writeMiss()
		return
	}
	// We hold a Valid copy, so every other copy is Valid too (Dirty
	// and Reserved imply a sole copy); invalidating without write-back
	// is safe.
	for _, o := range s.agents {
		if o != a && o.snoop(b) != nil {
			o.Store().Invalidate(b)
			o.Stats.InvalidationsApplied.Inc()
		}
	}
	f.Exclusive = true // Reserved
	f.Data = a.Version
	s.memWrite(b, a.Version) // write-through of the first write
	a.Committed(b, a.Version)
	a.Waiting = false
	a.Complete(a.Version)
}

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

// Config configures the bus system.
type Config struct {
	Topo   proto.Topology
	Space  addr.Space
	Lat    proto.Latencies
	Commit proto.CommitFunc
}

// System is the shared bus plus the memory modules: the "memory side" of
// the protocol. All agents transact through it.
type System struct {
	cfg    Config
	kernel *sim.Kernel
	bus    *network.Bus
	mem    []*memory.Module
	agents []*Agent
	stats  proto.CtrlStats
}

// NewSystem builds the bus system. bus must be the machine's network.
func NewSystem(cfg Config, kernel *sim.Kernel, bus *network.Bus) *System {
	s := &System{cfg: cfg, kernel: kernel, bus: bus}
	for j := 0; j < cfg.Space.Modules; j++ {
		s.mem = append(s.mem, memory.NewModule(cfg.Space, j, cfg.Lat.Memory))
	}
	return s
}

// Reset restores the bus system and its registered agents to their
// freshly-constructed state under cfg (Topo and Space must match
// construction), reusing the memory modules. Agents' cache stores are
// reset separately by their owner.
func (s *System) Reset(cfg Config) {
	if cfg.Topo != s.cfg.Topo || cfg.Space != s.cfg.Space {
		panic("writeonce: Reset shape differs from construction")
	}
	s.cfg = cfg
	s.stats = proto.CtrlStats{}
	for _, m := range s.mem {
		m.Reset(cfg.Lat.Memory)
	}
	for _, a := range s.agents {
		a.stats = proto.CacheSideStats{}
		a.busy = false
	}
}

// CtrlStats implements proto.MemSide.
func (s *System) CtrlStats() *proto.CtrlStats { return &s.stats }

// MemVersion returns memory's version of b, for invariants.
func (s *System) MemVersion(b addr.Block) uint64 {
	return s.mem[b.Module(s.cfg.Space.Modules)].Read(b)
}

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

// transact reserves a bus slot and runs fn atomically at its time,
// counting the transaction and its snoops (every other cache watches the
// bus) into the bus statistics.
func (s *System) transact(from int, kind msg.Kind, b addr.Block, fn func()) {
	at := s.bus.Reserve()
	ns := s.bus.Stats()
	ns.Messages.Inc()
	ns.Broadcasts.Inc()
	// Every attached cache except the initiator snoops the slot.
	ns.BroadcastCopies.Add(uint64(len(s.agents) - 1))
	s.kernel.At(at, fn)
}

// snoopOthers consults every other cache's directory for block b, applying
// the paper's stolen-cycle accounting, and returns the frames found.
func (s *System) snoopOthers(from int, b addr.Block) []*snoopHit {
	var hits []*snoopHit
	for i, a := range s.agents {
		if i == from {
			continue
		}
		a.stats.CommandsReceived.Inc()
		if f := a.store.Snoop(b); f != nil {
			hits = append(hits, &snoopHit{agent: a, frame: f})
		} else {
			a.stats.UselessCommands.Inc()
		}
	}
	return hits
}

type snoopHit struct {
	agent *Agent
	frame *cache.Frame
}

// Agent is one processor-cache pair on the bus.
type Agent struct {
	sys   *System
	index int
	store *cache.Cache
	stats proto.CacheSideStats
	busy  bool
}

// NewAgent creates agent index with the given cache and registers it on
// the bus system.
func NewAgent(sys *System, index int, store *cache.Cache) *Agent {
	a := &Agent{sys: sys, index: index, store: store}
	sys.agents = append(sys.agents, a)
	return a
}

// Store implements proto.CacheSide.
func (a *Agent) Store() *cache.Cache { return a.store }

// SideStats implements proto.CacheSide.
func (a *Agent) SideStats() *proto.CacheSideStats { return &a.stats }

// Deliver implements network.Handler; unused in the atomic-bus model.
func (a *Agent) Deliver(src network.NodeID, m msg.Message) {
	panic(fmt.Sprintf("writeonce: cache %d: unexpected %v", a.index, m))
}

func (a *Agent) commit(b addr.Block, v uint64) {
	if a.sys.cfg.Commit != nil {
		a.sys.cfg.Commit(b, v)
	}
}

// Access implements proto.CacheSide.
func (a *Agent) Access(ref addr.Ref, writeVersion uint64, done func(uint64)) {
	if a.busy {
		panic(fmt.Sprintf("writeonce: cache %d: overlapping references", a.index))
	}
	a.stats.References.Inc()
	lat := a.sys.cfg.Lat.CacheHit
	if !ref.Write {
		a.stats.Reads.Inc()
		if f := a.store.Access(ref.Block); f != nil {
			v := f.Data
			a.sys.kernel.After(lat, func() { done(v) })
			return
		}
		a.readMiss(ref.Block, done)
		return
	}
	a.stats.Writes.Inc()
	if f := a.store.Access(ref.Block); f != nil {
		switch {
		case f.Modified: // Dirty: write locally
			f.Data = writeVersion
			a.commit(ref.Block, writeVersion)
			a.sys.kernel.After(lat, func() { done(writeVersion) })
		case f.Exclusive: // Reserved: silent upgrade to Dirty
			f.Modified = true
			f.Exclusive = false
			f.Data = writeVersion
			a.stats.ExclusiveWrites.Inc()
			a.commit(ref.Block, writeVersion)
			a.sys.kernel.After(lat, func() { done(writeVersion) })
		default: // Valid: the write-once transaction
			a.writeOnce(ref.Block, writeVersion, done)
		}
		return
	}
	a.writeMiss(ref.Block, writeVersion, done)
}

// evictFor frees a frame for block b, flushing a dirty victim over the
// bus. The dirty copy stays valid (and snoopable) until the flush wins the
// bus: invalidating it at issue time would let a read slot reserved
// earlier find neither the dirty copy nor up-to-date memory. By the flush
// slot the copy may have been cleaned (a read snooped it) or taken (a
// write snooped it); the closure handles all three outcomes.
func (a *Agent) evictFor(b addr.Block) {
	victim := a.store.Victim(b)
	if !victim.Valid {
		return
	}
	old := victim.Block
	if victim.Modified {
		a.stats.EvictionsDirty.Inc()
		a.sys.transact(a.index, msg.KindBusFlush, old, func() {
			f := a.store.Lookup(old)
			if f == nil {
				return // a write transaction already took the block
			}
			if f.Modified {
				a.sys.memWrite(old, f.Data)
			}
			a.store.Evict(f)
		})
		return
	}
	a.stats.EvictionsClean.Inc()
	a.store.Evict(victim)
}

// readMiss runs the BusRead transaction.
func (a *Agent) readMiss(b addr.Block, done func(uint64)) {
	a.busy = true
	a.evictFor(b)
	a.sys.transact(a.index, msg.KindBusRead, b, func() {
		s := a.sys
		s.stats.ReadMisses.Inc()
		data := s.memRead(b)
		for _, h := range s.snoopOthers(a.index, b) {
			if h.frame.Modified {
				// The dirty owner supplies the block; memory is updated.
				data = h.frame.Data
				s.memWrite(b, data)
				h.frame.Modified = false
				h.agent.stats.QueriesAnswered.Inc()
			}
			h.frame.Exclusive = false // Reserved → Valid on observed read
		}
		victim := a.store.Victim(b)
		a.store.Fill(victim, b, data)
		a.busy = false
		s.kernel.After(s.cfg.Lat.CacheHit, func() { done(data) })
	})
}

// writeMiss runs the BusWrite (read-with-intent-to-modify) transaction.
func (a *Agent) writeMiss(b addr.Block, version uint64, done func(uint64)) {
	a.busy = true
	a.evictFor(b)
	a.sys.transact(a.index, msg.KindBusWrite, b, func() {
		s := a.sys
		s.stats.WriteMisses.Inc()
		for _, h := range s.snoopOthers(a.index, b) {
			if h.frame.Modified {
				// Write the dirty data back before taking ownership.
				s.memWrite(b, h.frame.Data)
				h.agent.stats.QueriesAnswered.Inc()
			}
			h.agent.store.Invalidate(b)
			h.agent.stats.InvalidationsApplied.Inc()
		}
		victim := a.store.Victim(b)
		a.store.Fill(victim, b, version)
		f := a.store.Lookup(b)
		f.Modified = true // Dirty
		a.commit(b, version)
		a.busy = false
		s.kernel.After(s.cfg.Lat.CacheHit, func() { done(version) })
	})
}

// writeOnce runs the first-write transaction on a Valid block: the word is
// written through to memory and every other copy is invalidated; the frame
// becomes Reserved.
func (a *Agent) writeOnce(b addr.Block, version uint64, done func(uint64)) {
	a.busy = true
	a.sys.transact(a.index, msg.KindBusWriteOnce, b, func() {
		s := a.sys
		s.stats.MRequests.Inc() // the write-hit-on-unmodified equivalent
		f := a.store.Lookup(b)
		if f == nil {
			// Our copy was invalidated by a transaction that won the bus
			// first (the §3.2.5 race, bus flavor). The slot is aborted
			// before touching anyone else's state — a new owner may hold
			// the block Dirty, and invalidating it here would destroy the
			// only valid copy. Retry as a write miss.
			a.stats.Retries.Inc()
			a.busy = false
			a.writeMiss(b, version, done)
			return
		}
		// We hold a Valid copy, so every other copy is Valid too (Dirty
		// and Reserved imply a sole copy); invalidating without write-back
		// is safe.
		for _, h := range s.snoopOthers(a.index, b) {
			h.agent.store.Invalidate(b)
			h.agent.stats.InvalidationsApplied.Inc()
		}
		f.Exclusive = true // Reserved
		f.Data = version
		s.memWrite(b, version) // write-through of the first write
		a.commit(b, version)
		a.busy = false
		s.kernel.After(s.cfg.Lat.CacheHit, func() { done(version) })
	})
}

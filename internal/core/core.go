// Package core implements the paper's contribution — the two-bit
// directory scheme of §3 — as the one directory controller every
// directory protocol in the repository runs on. Each memory controller
// K_j keeps global state per block of its module and runs the protocols
// of §3.2 — replacement, read miss, write miss, and write hit on a
// previously unmodified block. What the directory can say about a block's
// holders is a Policy: the paper's two bits (Absent, Present1, Present*,
// PresentM), which must broadcast BROADINV/BROADQUERY to caches whose
// identity the map does not record, or an exact holder set (the
// Censier–Feautrier full map, Tang's duplicated directories), which
// directs INV/PURGE at them. The transactions are the same.
//
// The controller resolves the synchronization races of §3.2.5 (and two
// further races the paper leaves implicit; see DESIGN.md):
//
//   - Racing MREQUESTs: commands for one block are serviced one at a time;
//     after an invalidation, MREQUESTs still queued for that block from
//     other caches are deleted (the caches convert on the invalidation
//     themselves).
//   - A stale two-bit MREQUEST arriving while the block is PresentM or
//     Absent is denied immediately with MGRANTED(k,false) — its sender's
//     copy is already doomed by an in-flight BROADINV. An exact directory
//     judges the sender's presence bit when the MREQUEST is serviced.
//   - An EJECT(k,a,"write") racing a query for a: the controller accepts
//     the eviction's put as the query answer and deletes the queued EJECT,
//     whose write-back it has just performed.
package core

import (
	"fmt"
	"math/bits"

	"twobit/internal/addr"
	"twobit/internal/directory"
	"twobit/internal/memory"
	"twobit/internal/msg"
	"twobit/internal/network"
	"twobit/internal/obs"
	"twobit/internal/proto"
	"twobit/internal/sim"
)

// txnNames holds the static async-span name per command kind
// ("txn Request", ...), precomputed so begin() never builds strings.
var txnNames [64]string

// stateEventNames names the instant emitted on each directory
// transition, indexed by the destination state. The metric slugs in
// stateCounterSuffix match: directory.State.String uses "Present*",
// which is hostile to metric-name tooling.
var stateEventNames = [4]string{"dir to Absent", "dir to Present1", "dir to Present*", "dir to PresentM"}

var stateCounterSuffix = [4]string{"dir_to_absent", "dir_to_present1", "dir_to_present_star", "dir_to_present_m"}

func init() {
	for k := range txnNames {
		txnNames[k] = "txn " + msg.Kind(k).String()
	}
}

func txnName(k msg.Kind) string {
	if int(k) < len(txnNames) {
		return txnNames[k]
	}
	return "txn"
}

// phase is where a transaction stands. The scheduled phases have exactly
// one kernel event in flight, which advances the transaction when it
// fires; the parked phases wait for a message.
type phase uint8

const (
	phService phase = iota // scheduled: the controller service time is running
	phData                 // parked: awaiting a put (query answer or eviction write-back)
	phStashed              // scheduled: a put that arrived early is being handed over
	phMemory               // scheduled: the memory access is running
	phAck                  // parked: MGRANTED(k,true) sent, awaiting the MACK
)

// txn is the one open transaction on a block. It is all a transaction
// carries between events — so it is also exactly what BlockSnapshot
// reports — and it doubles as the pooled argument of its own kernel
// events: scheduling a phase allocates nothing.
type txn struct {
	p     proto.Pending // the command being serviced, and who sent it
	phase phase
	from  directory.State // the block's state when service began
	at    sim.Time        // when the serializer started the command
	// rec is the block's record, which holds this txn and so stays the
	// block's until done clears it.
	rec *proto.BlockRec[txn]
	// The put in hand (phStashed onward): who supplied it and its data.
	// haveData tells the memory phase to store it rather than read.
	owner     int
	data      uint64
	haveData  bool
	exclusive bool // Yen–Fu: this read miss is granted exclusively
}

// Controller is the memory controller K_j of Figure 3-1.
type Controller struct {
	proto.CtrlBase
	pol Policy
	dir dir
	tb  *directory.TranslationBuffer
	// ser serializes commands per block and holds the per-block records:
	// the open transaction (BlockRec.Txn) and the puts that arrived before
	// theirs started (BlockRec.Stashed) live beside its busy flag and queue.
	ser *proto.Serializer[txn]

	// exceptScratch is the reusable broadcast exclusion list; Broadcast
	// consumes it synchronously, so one buffer per controller suffices.
	exceptScratch []network.NodeID

	free []*txn // recycled transaction records

	rec           *obs.Recorder
	comp          obs.Component   // "ctrl<j>" trace track
	obsQueue      *obs.Histogram  // "ctrl<j>/queue_depth" at submit
	obsTxn        *obs.Histogram  // "ctrl<j>/txn_cycles" begin → done
	obsBroadcasts *obs.Counter    // "ctrl<j>/broadcasts"
	obsStateTo    [4]*obs.Counter // "ctrl<j>/dir_to_*" transition counts
	tsQueue       *obs.TimeSeries // "ctrl<j>/queue_depth" windowed peak
	// tsCensus is the machine-wide directory-state census, indexed by the
	// two-bit directory.State every policy projects to: each controller
	// moves its blocks between the shared obs.DirStateSeriesNames gauges
	// as it transitions them.
	tsCensus [4]*obs.TimeSeries
	sp       *obs.SpanRecorder
}

// New constructs the controller under pol, wires it to the network, and
// returns it.
func New(cfg proto.CtrlConfig, pol Policy, kernel *sim.Kernel, net network.Network, mem *memory.Module) *Controller {
	if pol.Central && cfg.Topo.Modules != 1 {
		panic("core: a central controller requires exactly one module")
	}
	c := &Controller{pol: pol, comp: obs.NoComponent}
	blocks := cfg.Space.BlocksInModule(cfg.Module)
	if pol.Holders != nil {
		c.dir = &exactDir{store: pol.Holders(blocks, cfg.Topo.Caches), space: cfg.Space}
	} else {
		if cfg.TranslationBufferSize > 0 {
			c.tb = directory.NewTranslationBuffer(cfg.TranslationBufferSize)
		}
		c.dir = &twoBitDir{bits: directory.NewTwoBitMap(blocks), tb: c.tb, space: cfg.Space, stats: &c.Stats}
	}
	if cfg.Obs != nil {
		c.rec = cfg.Obs
		prefix := fmt.Sprintf("ctrl%d", cfg.Module)
		c.comp = cfg.Obs.Component(prefix)
		c.obsQueue = cfg.Obs.Histogram(prefix+"/queue_depth", 1)
		c.obsTxn = cfg.Obs.Histogram(prefix+"/txn_cycles", 16)
		c.obsBroadcasts = cfg.Obs.Counter(prefix + "/broadcasts")
		for s := range c.obsStateTo {
			c.obsStateTo[s] = cfg.Obs.Counter(prefix + "/" + stateCounterSuffix[s])
		}
		if ts := cfg.Obs.Windows(); ts != nil {
			c.tsQueue = ts.Series(prefix+"/queue_depth", obs.SeriesMax)
			for s := range c.tsCensus {
				c.tsCensus[s] = ts.Series(obs.DirStateSeriesNames[s], obs.SeriesGauge)
			}
			// Every block this module owns starts Absent.
			c.tsCensus[directory.Absent].GaugeAdd(int64(blocks))
		}
	}
	c.sp = cfg.Obs.Spans()
	c.Init(cfg, kernel, net, mem, c)
	c.ser = proto.NewSerializer[txn](c.mode(), cfg.Space, cfg.Module, c.begin)
	return c
}

// Reset restores the controller to its freshly-constructed state under
// cfg (see proto.CtrlBase.Reset), keeping the policy and the
// directory/serializer/transaction-record backing storage.
// Translation-buffer presence (size > 0 or not — the buffer itself resizes
// freely) must match construction. Defect hooks are values like the
// latencies. Pooled machines run without instrumentation, so cfg.Obs must
// be nil; such configs rebuild the machine instead.
func (c *Controller) Reset(cfg proto.CtrlConfig) {
	if cfg.Obs != nil {
		panic("core: Reset with Obs set — rebuild instead")
	}
	if c.pol.Holders == nil && (cfg.TranslationBufferSize > 0) != (c.tb != nil) {
		panic("core: Reset cannot toggle the translation buffer — rebuild instead")
	}
	c.CtrlBase.Reset(cfg)
	c.dir.reset(cfg.TranslationBufferSize)
	c.ser.Reset(c.mode())
}

// mode is the serializer mode: a central controller services one command
// at a time whatever the configuration asks.
func (c *Controller) mode() proto.ConcurrencyMode {
	if c.pol.Central {
		return proto.SingleCommand
	}
	return c.Mode
}

// serviceTime is the controller's per-command service time. A central
// controller must search every duplicated directory; charging one extra
// service interval per eight caches is the "large amount of processing
// power" the paper notes Tang's scheme needs.
func (c *Controller) serviceTime() sim.Time {
	if c.pol.Central {
		return c.Lat.CtrlService * sim.Time(1+c.Topo.Caches/8)
	}
	return c.Lat.CtrlService
}

// TranslationBuffer returns the §4.4 owner cache, or nil when disabled.
func (c *Controller) TranslationBuffer() *directory.TranslationBuffer { return c.tb }

// State returns the global state of block b — for an exact policy, the
// two-bit abstraction of its entry — for invariant checks.
func (c *Controller) State(b addr.Block) directory.State { return c.dir.state(b) }

// exact reports whether the policy names every holder.
func (c *Controller) exact() bool { return c.pol.Holders != nil }

// Entry returns the exact directory entry of block b — the holder bitmask
// and the m bit — for invariants; zero under the two-bit policy, which
// knows neither (its PresentM state carries the m bit).
func (c *Controller) Entry(b addr.Block) (holders uint64, modified bool) { return c.dir.entry(b) }

// Quiescent reports whether no transaction is active or queued.
func (c *Controller) Quiescent() bool {
	return c.ser.ActiveCount() == 0 && c.ser.QueuedLen() == 0
}

// pre samples block a's state before a directory update and moved, called
// after it, reports the transition to the recorder if the state changed.
// The pair brackets each update because an exact store has no single
// transition choke point; uninstrumented controllers skip both reads.
func (c *Controller) pre(a addr.Block) directory.State {
	if c.rec == nil {
		return directory.Absent
	}
	return c.dir.state(a)
}

func (c *Controller) moved(a addr.Block, old directory.State) {
	if c.rec == nil {
		return
	}
	if s := c.dir.state(a); s != old {
		c.obsStateTo[s].Inc()
		c.tsCensus[old].GaugeAdd(-1)
		c.tsCensus[s].GaugeAdd(1)
		c.rec.Emit(c.comp, stateEventNames[s], int64(a), int64(old))
	}
}

// Deliver implements network.Handler. Uncached I/O commands carry
// Cache -1: no cache is exempt from what they cause.
func (c *Controller) Deliver(src network.NodeID, m msg.Message) {
	if m.Kind == msg.KindRequest || m.Kind == msg.KindMRequest {
		// The requester's span: its REQUEST/MREQUEST transit ends here
		// (the deny-on-arrival answer below is part of the same span).
		c.sp.Mark(m.Cache, obs.PhaseReqTransit)
	}
	switch m.Kind {
	case msg.KindRequest, msg.KindEject, msg.KindUncachedRead, msg.KindUncachedWrite:
		c.submit(src, m)
	case msg.KindMRequest:
		// Deny-on-arrival: under two bits, if the block is PresentM or
		// Absent the sender's clean copy is doomed by an in-flight BROADINV
		// (or already gone); granting later could install a phantom owner.
		if !c.exact() && !c.dir.mayUpgrade(m.Block, m.Cache) {
			c.deny(m)
			return
		}
		c.submit(src, m)
	case msg.KindPut:
		c.handlePut(m)
	case msg.KindMAck:
		if c.exact() {
			// The shared cache agent acknowledges every positive grant; an
			// exact directory's grants are provably safe, so the
			// confirmation carries no news.
			return
		}
		r := c.ser.Rec(m.Block)
		if r == nil || r.Txn == nil || r.Txn.phase != phAck {
			panic(fmt.Sprintf("core: controller %d: stray %v", c.Module, m))
		}
		c.ack(r.Txn, m.Ok)
	default:
		panic(fmt.Sprintf("core: controller %d: unexpected %v", c.Module, m))
	}
}

func (c *Controller) submit(src network.NodeID, m msg.Message) {
	c.ser.Submit(proto.Pending{Src: src, M: m})
	c.Stats.NoteQueue(c.ser.QueuedLen())
	c.obsQueue.Observe(uint64(c.ser.QueuedLen()))
	c.tsQueue.Observe(uint64(c.ser.QueuedLen()))
}

// handlePut routes a data transfer to the transaction awaiting it, or
// stashes it for a queued EJECT("write").
func (c *Controller) handlePut(m msg.Message) {
	r := c.ser.Track(m.Block)
	t := r.Txn
	if t == nil || t.phase != phData {
		r.Stashed = append(r.Stashed, StashedPut{Cache: m.Cache, Data: m.Data})
		return
	}
	// If this put belongs to an in-flight eviction whose EJECT is still
	// queued, the active transaction subsumes its write-back: delete it.
	// The data then came from the eviction, not a query answer, so the
	// sender's copy is gone (the deleted EJECT would have said so).
	if c.deleteQueuedEject(m.Block, m.Cache) > 0 {
		c.drop(m.Block, bit(m.Cache))
	}
	t.owner, t.data = m.Cache, m.Data
	c.gotData(t)
}

func (c *Controller) deleteQueuedEject(a addr.Block, cache int) int {
	return c.ser.DeleteQueued(a, func(p proto.Pending) bool {
		return p.M.Kind == msg.KindEject && p.M.RW == msg.Write && p.M.Cache == cache
	})
}

func (c *Controller) drop(a addr.Block, mask uint64) {
	if mask == 0 {
		return
	}
	old := c.pre(a)
	c.dir.dropped(a, mask)
	c.moved(a, old)
}

// begin opens the transaction for one command and starts the controller
// service time.
func (c *Controller) begin(p proto.Pending) {
	var t *txn
	if n := len(c.free); n > 0 {
		t, c.free = c.free[n-1], c.free[:n-1]
	} else {
		t = new(txn)
	}
	*t = txn{p: p, at: c.Kernel.Now(), rec: c.ser.Rec(p.M.Block)}
	t.rec.Txn = t
	if c.rec != nil {
		c.rec.AsyncBegin(c.comp, txnName(p.M.Kind), int64(p.M.Block))
	}
	c.schedule(t, phService, c.serviceTime())
}

// schedule moves t to a scheduled phase and arms its one kernel event.
func (c *Controller) schedule(t *txn, ph phase, d sim.Time) {
	t.phase = ph
	c.Kernel.AfterCall(d, c, uint64(t.p.M.Block), 0)
}

// Call implements sim.Caller: the scheduled phase of block a0's
// transaction has run out.
func (c *Controller) Call(a0, _ uint64) {
	t := c.ser.Rec(addr.Block(a0)).Txn
	switch t.phase {
	case phService:
		c.service(t)
	case phStashed:
		c.gotData(t)
	case phMemory:
		c.complete(t)
	default:
		panic(fmt.Sprintf("core: controller %d: event for %v in parked phase %d", c.Module, t.p.M, t.phase))
	}
}

func (c *Controller) service(t *txn) {
	m := t.p.M
	t.from = c.State(m.Block)
	switch m.Kind {
	case msg.KindRequest:
		c.Stats.Requests.Inc()
		c.sp.Mark(m.Cache, obs.PhaseQueue)
		if m.RW == msg.Read {
			c.Stats.ReadMisses.Inc()
		} else {
			c.Stats.WriteMisses.Inc()
		}
		c.access(t, m.RW)
	case msg.KindUncachedRead:
		c.Stats.DMAReads.Inc()
		c.access(t, msg.Read)
	case msg.KindUncachedWrite:
		c.Stats.DMAWrites.Inc()
		c.access(t, msg.Write)
	case msg.KindMRequest:
		c.Stats.MRequests.Inc()
		c.sp.Mark(m.Cache, obs.PhaseQueue)
		c.mrequest(t)
	case msg.KindEject:
		c.Stats.Ejects.Inc()
		c.eject(t)
	default:
		panic(fmt.Sprintf("core: controller %d: cannot service %v", c.Module, m))
	}
}

// access is the front half of §3.2.2 (read miss), §3.2.3 (write miss) and
// their uncached I/O counterparts: make memory current and, for a write,
// kill every other copy; then the memory access runs (complete). A
// PresentM block is first retrieved from its owner — who keeps a clean
// copy on a read and gives the block up on a write.
func (c *Controller) access(t *txn, rw msg.RW) {
	m := t.p.M
	if t.from == directory.PresentM {
		c.query(t, rw)
		return
	}
	if rw == msg.Write {
		hooked := c.Hooks != nil && c.Hooks.SkipWriteMissInvalidate && m.Kind == msg.KindRequest
		if c.invalidates(t) && !hooked {
			c.invalidate(m.Block, m.Cache)
		}
	} else if m.Kind == msg.KindRequest {
		t.exclusive = c.pol.Exclusive && t.from == directory.Absent
	}
	c.schedule(t, phMemory, c.Lat.Memory)
}

// invalidates reports whether a write-type command that found the block
// unmodified runs the invalidation step. Two bits run it when a copy
// other than the requester's may exist: never from Absent, and not for an
// MREQUEST from Present1, whose sole copy is the requester's — which is
// what justifies keeping Present1. An exact directory always runs it: the
// holder list may be empty, but §3.2.5's queue deletion still applies.
func (c *Controller) invalidates(t *txn) bool {
	if c.exact() {
		return true
	}
	if t.p.M.Kind == msg.KindMRequest {
		return t.from == directory.PresentStar
	}
	return t.from != directory.Absent
}

// gotData continues a transaction whose put is in hand (t.owner, t.data):
// the memory access that stores it runs next.
func (c *Controller) gotData(t *txn) {
	if t.p.M.Kind == msg.KindRequest {
		c.sp.Mark(t.p.M.Cache, obs.PhaseWriteback)
	}
	t.haveData = true
	c.schedule(t, phMemory, c.Lat.Memory)
}

// complete is the back half of every data-moving transaction, run when
// the memory access finishes: memory is updated or read, the requester is
// answered, and the directory records the outcome.
func (c *Controller) complete(t *txn) {
	m := t.p.M
	k, a := m.Cache, m.Block
	old := c.pre(a)
	switch m.Kind {
	case msg.KindRequest:
		c.sp.Mark(k, obs.PhaseMemory)
		c.Send(c.Topo.CacheNode(k), msg.Message{
			Kind: msg.KindGet, Block: a, Cache: k, Data: c.settle(t), Ok: t.exclusive,
		})
		switch {
		case m.RW == msg.Write:
			c.dir.owned(a, k)
		case t.haveData:
			c.dir.cleaned(a, t.owner, k)
		default:
			c.dir.filled(a, k, t.from, t.exclusive)
		}
	case msg.KindEject:
		// §3.2.1 case 3: the write-back.
		c.Mem.Write(a, t.data)
		c.dir.wroteBack(a, k)
	case msg.KindUncachedRead:
		// The device needs the most recent value but caches nothing.
		c.Send(t.p.Src, msg.Message{Kind: msg.KindGet, Block: a, Cache: k, Data: c.settle(t)})
		if t.haveData {
			c.dir.cleaned(a, t.owner, -1)
		}
	case msg.KindUncachedWrite:
		// A whole-block write: a drained owner's data is discarded — the
		// device's overwrites it. The write linearizes here.
		c.Mem.Write(a, m.Data)
		c.Committed(a, m.Data)
		c.Send(t.p.Src, msg.Message{Kind: msg.KindGet, Block: a, Cache: k, Data: m.Data})
		c.dir.cleared(a)
	default:
		panic(fmt.Sprintf("core: controller %d: %v has no memory phase", c.Module, m))
	}
	c.moved(a, old)
	c.done(t)
}

// settle makes memory current for t's block and returns its data: the
// owner's write-back if one is in hand, else what memory already holds.
func (c *Controller) settle(t *txn) uint64 {
	if !t.haveData {
		return c.Mem.Read(t.p.M.Block)
	}
	c.Mem.Write(t.p.M.Block, t.data)
	return t.data
}

// mrequest implements §3.2.4.
func (c *Controller) mrequest(t *txn) {
	m := t.p.M
	if !c.dir.mayUpgrade(m.Block, m.Cache) {
		// The block's state changed while the MREQUEST waited (the two-bit
		// deny-on-arrival check covers most of this; a change while queued
		// lands here). The sender converts on the invalidation it has
		// received; deny for completeness.
		c.deny(m)
		c.done(t)
		return
	}
	if c.invalidates(t) {
		c.invalidate(m.Block, m.Cache)
	}
	c.Send(c.Topo.CacheNode(m.Cache), msg.Message{
		Kind: msg.KindMGranted, Block: m.Block, Cache: m.Cache, Ok: true,
	})
	if c.exact() {
		c.ack(t, true)
		return
	}
	// The grant takes effect only when the cache confirms it still held
	// the copy. An MREQUEST whose sender was invalidated after the §3.2.5
	// queue deletion ran would otherwise install a phantom owner: the
	// state would read PresentM while no modified copy exists, and the
	// next BROADQUERY would wait forever.
	t.phase = phAck
}

func (c *Controller) deny(m msg.Message) {
	c.Stats.MGrantDenied.Inc()
	c.Send(c.Topo.CacheNode(m.Cache), msg.Message{
		Kind: msg.KindMGranted, Block: m.Block, Cache: m.Cache, Ok: false,
	})
}

// ack closes an MREQUEST grant on the cache's verdict.
func (c *Controller) ack(t *txn, ok bool) {
	k, a := t.p.M.Cache, t.p.M.Block
	old := c.pre(a)
	switch {
	case ok:
		c.dir.owned(a, k)
	case t.from == directory.PresentStar:
		// The sender had converted: its own copy is gone and its write
		// REQUEST, already queued behind us, will reload it. The Present*
		// path broadcast BROADINV before granting, so every other copy is
		// doomed too: the block is Absent.
		c.Stats.MGrantDenied.Inc()
		c.dir.cleared(a)
	default:
		// The Present1 grant sent no invalidation. The denial proves the
		// tracked copy was never the sender's — it belongs to another
		// cache and is still live, so Present1 stands. Resetting to Absent
		// here would let the sender's queued write REQUEST be serviced
		// without BROADINV, stranding that live copy stale forever (found
		// by internal/mcheck).
		c.Stats.MGrantDenied.Inc()
		c.dir.distrust(a)
	}
	c.moved(a, old)
	c.done(t)
}

// eject implements §3.2.1 (controller side).
func (c *Controller) eject(t *txn) {
	m := t.p.M
	if m.RW == msg.Write {
		c.await(t) // case 3: the put, then the write-back (complete)
		return
	}
	old := c.pre(m.Block)
	c.dir.ejected(m.Block, m.Cache)
	c.moved(m.Block, old)
	c.done(t)
}

// command sends a coherence command about block a to every cache that may
// hold it, except k: the directed kind to each holder when the directory
// can name them, else one broadcast. It returns the caches addressed by
// name.
func (c *Controller) command(a addr.Block, k int, directed, broadcast msg.Kind, rw msg.RW) uint64 {
	mask, known := c.dir.holders(a)
	if !known {
		c.Stats.Broadcasts.Inc()
		c.obsBroadcasts.Inc()
		c.Net.Broadcast(c.Node(), msg.Message{Kind: broadcast, Block: a, Cache: k, RW: rw},
			c.broadcastExcept(k)...)
		return 0
	}
	mask &^= bit(k)
	for rest := mask; rest != 0; rest &= rest - 1 {
		o := bits.TrailingZeros64(rest)
		c.Stats.DirectedSends.Inc()
		c.Send(c.Topo.CacheNode(o), msg.Message{Kind: directed, Block: a, Cache: o, RW: rw})
	}
	return mask
}

// invalidate sends the invalidation for block a exempting cache k (INV or
// BROADINV), then deletes queued MREQUESTs from other caches (§3.2.5) —
// those caches convert on the invalidation themselves.
func (c *Controller) invalidate(a addr.Block, k int) {
	c.drop(a, c.command(a, k, msg.KindInv, msg.KindBroadInv, msg.Read))
	if c.Hooks != nil && c.Hooks.SkipMRequestQueueDelete {
		return
	}
	if n := c.ser.DeleteQueued(a, func(p proto.Pending) bool {
		return p.M.Kind == msg.KindMRequest && p.M.Cache != k
	}); n > 0 {
		c.Stats.DeletedMRequests.Add(uint64(n))
	}
}

// query asks the owner of t's PresentM block for its data (PURGE or
// BROADQUERY) and parks t until the put arrives — possibly via a racing
// eviction.
func (c *Controller) query(t *txn, rw msg.RW) {
	k, a := t.p.M.Cache, t.p.M.Block
	if c.takeStashed(t) {
		// The owner's eviction already delivered the data (its EJECT was
		// queued behind us and its put arrived early): delete the
		// now-subsumed EJECT. The owner's copy is gone.
		c.deleteQueuedEject(a, t.owner)
		c.drop(a, bit(t.owner))
		return
	}
	c.command(a, k, msg.KindPurge, msg.KindBroadQuery, rw)
	t.phase = phData
}

// await parks t until its put arrives, unless one is already stashed.
func (c *Controller) await(t *txn) {
	if !c.takeStashed(t) {
		t.phase = phData
	}
}

// takeStashed hands the oldest stashed put for t's block to t, through a
// zero-delay event. The SkipStashedPutConsume defect leaves the stash
// alone.
func (c *Controller) takeStashed(t *txn) bool {
	r := t.rec
	if len(r.Stashed) == 0 || (c.Hooks != nil && c.Hooks.SkipStashedPutConsume) {
		return false
	}
	t.owner, t.data = r.Stashed[0].Cache, r.Stashed[0].Data
	r.Stashed = r.Stashed[:copy(r.Stashed, r.Stashed[1:])]
	c.schedule(t, phStashed, 0)
	return true
}

// done completes transaction t.
func (c *Controller) done(t *txn) {
	m := t.p.M
	busy := uint64(c.Kernel.Now() - t.at)
	c.Stats.BusyCycles.Add(busy)
	c.obsTxn.Observe(busy)
	if c.rec != nil {
		c.rec.AsyncEnd(c.comp, txnName(m.Kind), int64(m.Block))
	}
	t.rec.Txn = nil
	c.free = append(c.free, t)
	c.ser.Done(m.Block)
}

// broadcastExcept builds the exclusion list for a broadcast exempting
// cache k: the controller's broadcasts go to caches only, so all other
// controllers are excluded too. The returned slice is the controller's
// reusable scratch buffer, valid until the next call.
func (c *Controller) broadcastExcept(k int) []network.NodeID {
	except := c.exceptScratch[:0]
	if k >= 0 {
		except = append(except, c.Topo.CacheNode(k))
	}
	for j := 0; j < c.Topo.Modules; j++ {
		if j != c.Module {
			except = append(except, c.Topo.CtrlNode(j))
		}
	}
	for d := 0; d < c.Topo.DMA; d++ {
		except = append(except, c.Topo.DMANode(d))
	}
	c.exceptScratch = except
	return except
}

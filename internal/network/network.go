// Package network models the interconnection network of Figure 3-1 linking
// processor-cache pairs with the memory-controller/memory-module pairs.
//
// Three implementations cover the design space the paper discusses:
//
//   - Crossbar: an ideal point-to-point network with a fixed latency and
//     per-(source,destination) FIFO ordering. This is the paper's "general
//     interconnection network" where broadcasts are expensive: a broadcast
//     is materialized as one message per destination.
//   - Bus: a single shared, arbitrated medium where every attached node can
//     snoop every transaction — the substrate for §2.5's bus schemes, where
//     a broadcast costs one bus transaction.
//   - Omega: a blocking multistage network; messages reserve a link slot at
//     every stage, so contention (including broadcast-induced contention,
//     the concern raised in §4.3) is visible in delivery latency.
//
// All implementations deliver messages through the shared discrete-event
// kernel and preserve FIFO order per (source, destination) pair, which the
// coherence protocols rely on.
package network

import (
	"fmt"

	"twobit/internal/msg"
	"twobit/internal/obs"
	"twobit/internal/rng"
	"twobit/internal/sim"
	"twobit/internal/stats"
)

// deliverNames holds the static span name for each message kind
// ("deliver Request", ...), precomputed so the delivery hot path never
// concatenates strings.
var deliverNames [64]string

func init() {
	for k := range deliverNames {
		deliverNames[k] = "deliver " + msg.Kind(k).String()
	}
}

func deliverName(k msg.Kind) string {
	if int(k) < len(deliverNames) {
		return deliverNames[k]
	}
	return "deliver"
}

// NodeID identifies an attached component (cache or memory controller).
type NodeID int

// Handler receives delivered messages.
type Handler interface {
	Deliver(src NodeID, m msg.Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(src NodeID, m msg.Message)

// Deliver calls f(src, m).
func (f HandlerFunc) Deliver(src NodeID, m msg.Message) { f(src, m) }

// Network is the interface the protocols program against.
type Network interface {
	// Attach registers h as the receiver for id. Attaching the same id
	// twice panics: it is always a wiring bug.
	Attach(id NodeID, h Handler)
	// Send delivers m from src to dst after the network's latency.
	Send(src, dst NodeID, m msg.Message)
	// Broadcast delivers m from src to every attached node except src and
	// the ids in except, and returns the number of copies sent. The paper's
	// BROADINV/BROADQUERY use except to skip the initiating cache k.
	Broadcast(src NodeID, m msg.Message, except ...NodeID) int
	// Stats returns the network's traffic counters.
	Stats() *Stats
	// Observe attaches an observability recorder, replacing any earlier
	// one. names maps a node id to its track name (the system layer knows
	// the topology; the network does not). A nil recorder detaches and
	// leaves the network uninstrumented; Observe must be called before
	// traffic flows.
	Observe(rec *obs.Recorder, names func(NodeID) string)
}

// Stats counts network traffic. ControlMessages vs DataMessages follow
// Table 3-1's distinction between commands and data transfers.
type Stats struct {
	Messages        stats.Counter `json:"messages"`         // total deliveries
	ControlMessages stats.Counter `json:"control_messages"` // command deliveries
	DataMessages    stats.Counter `json:"data_messages"`    // data transfer deliveries
	Broadcasts      stats.Counter `json:"broadcasts"`       // broadcast operations (not per-copy)
	BroadcastCopies stats.Counter `json:"broadcast_copies"` // individual deliveries caused by broadcasts
	BusBusyCycles   stats.Counter `json:"bus_busy_cycles"`  // cycles the shared medium was occupied (Bus)
	StageConflicts  stats.Counter `json:"stage_conflicts"`  // link-slot conflicts observed (Omega)
}

func (s *Stats) count(k msg.Kind) {
	s.Messages.Inc()
	if k.IsData() {
		s.DataMessages.Inc()
	} else {
		s.ControlMessages.Inc()
	}
}

// slab pools a network's in-flight records so the delivery hot path never
// allocates a closure. Records are recycled through an intrusive free
// list; the slab's length is its in-flight high-water mark. The zero slab
// is empty and ready.
type slab[T any] struct {
	recs []slabRec[T]
	free int32 // 1 + index of the first free record; 0 when none
}

type slabRec[T any] struct {
	v    T
	next int32 // free-list link (as slab.free), meaningful only while free
}

// put stores v in a free record and returns its index.
func (s *slab[T]) put(v T) int32 {
	i := s.free - 1
	if i < 0 {
		s.recs = append(s.recs, slabRec[T]{})
		i = int32(len(s.recs) - 1)
	} else {
		s.free = s.recs[i].next
	}
	s.recs[i].v = v
	return i
}

// release zeroes record i, dropping what it references, and frees it.
func (s *slab[T]) release(i int32) {
	s.recs[i] = slabRec[T]{next: s.free}
	s.free = i + 1
}

// reset frees every record and keeps the storage.
func (s *slab[T]) reset() {
	clear(s.recs)
	s.recs = s.recs[:0]
	s.free = 0
}

// delivery is one in-flight point-to-point message: 72 bytes with its
// slab link.
type delivery struct {
	src, dst NodeID
	h        Handler
	m        msg.Message
}

// bcast is one broadcast's message, stored once for all its copies: each
// copy is its own kernel event naming the record and its destination, and
// the last to land frees the record.
type bcast struct {
	src  NodeID
	m    msg.Message
	left int32 // copies scheduled and not yet delivered
}

// base holds the bookkeeping all implementations share.
type base struct {
	kernel   *sim.Kernel
	handlers []Handler // dense by NodeID; nil = unattached
	order    []NodeID  // attachment order, for deterministic broadcast fan-out
	stats    Stats

	sends  slab[delivery]
	bcasts slab[bcast]

	// Observability (all nil/empty when no recorder is attached).
	rec       *obs.Recorder
	nameFn    func(NodeID) string
	track     []obs.Component // NodeID → trace track, NoComponent when unmapped
	obsSends  *obs.Counter    // "net/sends"
	obsFanout *obs.Histogram  // "net/broadcast_fanout"
	tsMsgs    *obs.TimeSeries // "net/msgs" windowed sends
	tsBusy    *obs.TimeSeries // "net/busy_cycles" windowed medium occupancy
}

func (b *base) Attach(id NodeID, h Handler) {
	if h == nil {
		panic("network: Attach with nil handler")
	}
	if id < 0 {
		panic(fmt.Sprintf("network: negative node id %d", id))
	}
	for int(id) >= len(b.handlers) {
		b.handlers = append(b.handlers, nil)
	}
	if b.handlers[id] != nil {
		panic(fmt.Sprintf("network: node %d attached twice", id))
	}
	b.handlers[id] = h
	b.order = append(b.order, id)
	if b.rec != nil {
		b.trackFor(id)
	}
}

func (b *base) Stats() *Stats { return &b.stats }

// reset clears per-run state — counters and the delivery slabs — while
// keeping the attachment graph (handlers, order): Attach panics on
// re-attach, so a pooled network keeps its wiring for the machine's
// lifetime. Callers reset only between runs, when the kernel has drained
// every scheduled delivery, so no live event indexes the cleared slab.
func (b *base) reset() {
	b.stats = Stats{}
	b.sends.reset()
	b.bcasts.reset()
}

// Observe implements Network. It replaces whatever recorder was attached
// before: a nil rec detaches it, and every handle and track with it.
func (b *base) Observe(rec *obs.Recorder, names func(NodeID) string) {
	b.rec, b.nameFn = rec, names
	b.track = b.track[:0]
	b.obsSends = rec.Counter("net/sends")
	b.obsFanout = rec.Histogram("net/broadcast_fanout", 1)
	b.tsMsgs = rec.Windows().Series("net/msgs", obs.SeriesSum)
	b.tsBusy = rec.Windows().Series("net/busy_cycles", obs.SeriesSum)
	if rec == nil {
		return
	}
	for _, id := range b.order {
		b.trackFor(id)
	}
}

// trackFor resolves (registering on first use) the trace track of a
// node, deduped by name with any track the node's own agent registered.
func (b *base) trackFor(id NodeID) obs.Component {
	for int(id) >= len(b.track) {
		b.track = append(b.track, obs.NoComponent)
	}
	if b.track[id] == obs.NoComponent {
		name := fmt.Sprintf("node%d", id)
		if b.nameFn != nil {
			name = b.nameFn(id)
		}
		b.track[id] = b.rec.Component(name)
	}
	return b.track[id]
}

// scheduleDeliver counts one message and schedules its delivery at time
// at through the kernel's pooled event form: the delivery record lives
// in the network's slab, so the per-message cost is one slab write and
// one heap push — no closure, and no allocation once the slab has grown
// to the network's in-flight high-water mark.
func (b *base) scheduleDeliver(at sim.Time, src, dst NodeID, h Handler, m msg.Message) {
	b.countSend(dst, m.Kind)
	i := b.sends.put(delivery{src: src, dst: dst, h: h, m: m})
	b.kernel.AtCall(at, b, uint64(i), 0)
}

// countSend counts one delivery of a kind-k message to dst.
func (b *base) countSend(dst NodeID, k msg.Kind) {
	b.stats.count(k)
	if b.rec != nil {
		b.obsSends.Inc()
		b.tsMsgs.Inc()
		b.trackFor(dst) // pre-register so deliver never grows b.track
	}
}

// Call implements sim.Caller: it executes the pooled delivery a0 indexes,
// recycling its record first.
func (b *base) Call(a0, _ uint64) {
	d := b.sends.recs[a0].v
	b.sends.release(int32(a0))
	b.deliver(d.src, d.dst, d.h, d.m)
}

// openBroadcast stores m from src once for every copy of one broadcast
// and returns the record's index. Each copy goes out through
// scheduleCopy, in the order the Sends it replaces would have gone;
// closeBroadcast ends the fan-out.
func (b *base) openBroadcast(src NodeID, m msg.Message) int32 {
	b.stats.Broadcasts.Inc()
	return b.bcasts.put(bcast{src: src, m: m})
}

// scheduleCopy counts broadcast rec's copy to dst as one message and
// schedules its delivery at time at: one heap push, no slab write.
func (b *base) scheduleCopy(at sim.Time, rec int32, dst NodeID) {
	r := &b.bcasts.recs[rec].v
	r.left++
	b.countSend(dst, r.m.Kind)
	b.stats.BroadcastCopies.Inc()
	b.kernel.AtCall(at, (*copyCaller)(b), uint64(rec), uint64(dst))
}

// closeBroadcast records the fan-out of broadcast rec, which sent n
// copies, frees the record at once if every node was excluded, and
// returns n.
func (b *base) closeBroadcast(rec int32, n int) int {
	if n == 0 {
		b.bcasts.release(rec)
	}
	b.obsFanout.Observe(uint64(n))
	return n
}

// copyCaller is the sim.Caller of broadcast copies: the network's base
// under a second Call method, converted, not allocated.
type copyCaller base

// Call delivers broadcast a0's copy to a1, and frees the record when it
// is the last copy to land.
func (c *copyCaller) Call(a0, a1 uint64) {
	b := (*base)(c)
	r := &b.bcasts.recs[a0].v
	src, m := r.src, r.m
	if r.left--; r.left == 0 {
		b.bcasts.release(int32(a0))
	}
	dst := NodeID(a1)
	b.deliver(src, dst, b.handlers[dst], m)
}

// deliver hands m from src to dst's handler h. With a recorder attached
// the handler dispatch is wrapped in a span on the destination's track,
// so it shows up as occupancy in the exported trace.
func (b *base) deliver(src, dst NodeID, h Handler, m msg.Message) {
	if b.rec == nil {
		h.Deliver(src, m)
		return
	}
	comp := b.track[dst]
	name := deliverName(m.Kind)
	block := int64(m.Block)
	b.rec.Begin(comp, name, block)
	h.Deliver(src, m)
	b.rec.End(comp, name, block)
}

func (b *base) handler(id NodeID) Handler {
	if id < 0 || int(id) >= len(b.handlers) || b.handlers[id] == nil {
		panic(fmt.Sprintf("network: send to unattached node %d", id))
	}
	return b.handlers[id]
}

func excluded(id NodeID, src NodeID, except []NodeID) bool {
	if id == src {
		return true
	}
	for _, e := range except {
		if id == e {
			return true
		}
	}
	return false
}

// Crossbar is an ideal point-to-point network with constant base latency
// and, optionally, random per-message jitter. Jitter models a routed
// interconnect whose individual message delays vary; per-(source,
// destination) FIFO order — which the coherence protocols require — is
// preserved by clamping each delivery to be no earlier than the pair's
// previous one.
type Crossbar struct {
	base
	latency sim.Time
	jitter  sim.Time // max extra delay per message (0 = deterministic)
	random  *rng.PCG
	// lastAt enforces per-pair FIFO under jitter; nil when jitter is 0
	// (the clamp is unreachable then — see Send).
	lastAt map[[2]NodeID]sim.Time
}

// NewCrossbar returns a crossbar delivering after latency cycles.
func NewCrossbar(k *sim.Kernel, latency sim.Time) *Crossbar {
	return NewJitterCrossbar(k, latency, 0, 0)
}

// NewJitterCrossbar returns a crossbar whose per-message delay is
// latency + U[0, jitter], seeded deterministically.
func NewJitterCrossbar(k *sim.Kernel, latency, jitter sim.Time, seed uint64) *Crossbar {
	if latency < 0 || jitter < 0 {
		panic("network: negative latency or jitter")
	}
	c := &Crossbar{
		base:    base{kernel: k},
		latency: latency,
		jitter:  jitter,
		random:  rng.New(seed, 0x17e7),
	}
	if jitter > 0 {
		c.lastAt = make(map[[2]NodeID]sim.Time)
	}
	return c
}

// Reset restores the crossbar to its freshly-constructed state under new
// timing parameters, keeping the attachment graph. Semantics match
// NewJitterCrossbar.
func (c *Crossbar) Reset(latency, jitter sim.Time, seed uint64) {
	if latency < 0 || jitter < 0 {
		panic("network: negative latency or jitter")
	}
	c.base.reset()
	c.latency = latency
	c.jitter = jitter
	c.random.Reseed(seed, 0x17e7)
	switch {
	case jitter > 0 && c.lastAt == nil:
		c.lastAt = make(map[[2]NodeID]sim.Time)
	case jitter > 0:
		clear(c.lastAt)
	default:
		c.lastAt = nil
	}
}

// Send implements Network.
func (c *Crossbar) Send(src, dst NodeID, m msg.Message) {
	h := c.handler(dst)
	c.scheduleDeliver(c.arrival(src, dst), src, dst, h, m)
}

// arrival returns the delivery time of a message sent now from src to dst.
func (c *Crossbar) arrival(src, dst NodeID) sim.Time {
	at := c.kernel.Now() + c.latency
	if c.jitter > 0 {
		// The FIFO clamp is only reachable under jitter: without it the
		// delivery time is Now()+latency, which is nondecreasing per pair
		// because the kernel clock never runs backward.
		at += sim.Time(c.random.Intn(int(c.jitter) + 1))
		key := [2]NodeID{src, dst}
		if prev := c.lastAt[key]; at < prev {
			at = prev
		}
		c.lastAt[key] = at
	}
	return at
}

// Broadcast implements Network: one message per destination (no hardware
// broadcast in a general interconnection network), each timed as its own
// Send.
func (c *Crossbar) Broadcast(src NodeID, m msg.Message, except ...NodeID) int {
	rec := c.openBroadcast(src, m)
	n := 0
	for _, id := range c.order {
		if excluded(id, src, except) {
			continue
		}
		c.scheduleCopy(c.arrival(src, id), rec, id)
		n++
	}
	return c.closeBroadcast(rec, n)
}

// Bus is a single shared medium: every message (point-to-point or
// broadcast) occupies the bus for cycleTime cycles and is delivered
// latency cycles after it wins arbitration. Arbitration is FCFS in
// simulation order.
type Bus struct {
	base
	cycleTime sim.Time
	latency   sim.Time
	freeAt    sim.Time
}

// NewBus returns a bus. cycleTime is the occupancy per transaction;
// latency is the propagation delay to the destination(s).
func NewBus(k *sim.Kernel, cycleTime, latency sim.Time) *Bus {
	if cycleTime < 1 {
		panic("network: bus cycle time must be ≥ 1")
	}
	if latency < 0 {
		panic("network: negative latency")
	}
	return &Bus{base: base{kernel: k}, cycleTime: cycleTime, latency: latency}
}

// Reset restores the bus to its freshly-constructed state under new
// timing parameters, keeping the attachment graph. Semantics match NewBus.
func (b *Bus) Reset(cycleTime, latency sim.Time) {
	if cycleTime < 1 {
		panic("network: bus cycle time must be ≥ 1")
	}
	if latency < 0 {
		panic("network: negative latency")
	}
	b.base.reset()
	b.cycleTime = cycleTime
	b.latency = latency
	b.freeAt = 0
}

// acquire reserves the bus and returns the delivery time.
func (b *Bus) acquire() sim.Time {
	start := b.kernel.Now()
	if b.freeAt > start {
		start = b.freeAt
	}
	b.freeAt = start + b.cycleTime
	b.stats.BusBusyCycles.Add(uint64(b.cycleTime))
	b.tsBusy.Add(uint64(b.cycleTime))
	return start + b.latency
}

// Send implements Network.
func (b *Bus) Send(src, dst NodeID, m msg.Message) {
	h := b.handler(dst)
	at := b.acquire()
	b.scheduleDeliver(at, src, dst, h, m)
}

// Broadcast implements Network: one bus transaction, snooped by everyone.
func (b *Bus) Broadcast(src NodeID, m msg.Message, except ...NodeID) int {
	rec := b.openBroadcast(src, m)
	at := b.acquire()
	n := 0
	for _, id := range b.order {
		if excluded(id, src, except) {
			continue
		}
		b.scheduleCopy(at, rec, id)
		n++
	}
	return b.closeBroadcast(rec, n)
}

// Reserve occupies the bus for one transaction and returns the time at
// which the transaction is visible to every snooper. It exists for
// protocols (write-once) that model atomic bus transactions directly
// rather than as per-destination messages; callers account the traffic via
// Stats themselves.
func (b *Bus) Reserve() sim.Time { return b.acquire() }

// Utilization returns the fraction of elapsed time the bus was occupied.
func (b *Bus) Utilization() float64 {
	now := b.kernel.Now()
	if now == 0 {
		return 0
	}
	return float64(b.stats.BusBusyCycles.Value()) / float64(now)
}

// Omega is a blocking multistage interconnection network with 2×2 switches.
// A message from src to dst traverses stages stages; at each stage it
// reserves the earliest free slot on the link it needs, so conflicting
// routes queue behind each other. Node ids must be < Size().
type Omega struct {
	base
	stages   int
	size     int
	hop      sim.Time
	linkFree [][]sim.Time // [stage][link] next free cycle
}

// NewOmega returns an omega network connecting size nodes, where size is
// rounded up to the next power of two (minimum 2). hop is the per-stage
// transfer time.
func NewOmega(k *sim.Kernel, size int, hop sim.Time) *Omega {
	if size < 2 {
		size = 2
	}
	if hop < 1 {
		panic("network: omega hop time must be ≥ 1")
	}
	pow := 1
	stages := 0
	for pow < size {
		pow <<= 1
		stages++
	}
	lf := make([][]sim.Time, stages)
	for i := range lf {
		lf[i] = make([]sim.Time, pow)
	}
	return &Omega{base: base{kernel: k}, stages: stages, size: pow, hop: hop, linkFree: lf}
}

// Reset restores the omega network to its freshly-constructed state under
// a new hop time, keeping the attachment graph and the stage/link arrays
// (port count is machine shape).
func (o *Omega) Reset(hop sim.Time) {
	if hop < 1 {
		panic("network: omega hop time must be ≥ 1")
	}
	o.base.reset()
	o.hop = hop
	for _, row := range o.linkFree {
		clear(row)
	}
}

// Size returns the (power-of-two) port count.
func (o *Omega) Size() int { return o.size }

// route walks the perfect-shuffle stages and returns the delivery time,
// reserving link slots along the way.
func (o *Omega) route(src, dst NodeID) sim.Time {
	if int(src) >= o.size || int(dst) >= o.size || src < 0 || dst < 0 {
		panic(fmt.Sprintf("network: omega route %d→%d outside [0,%d)", src, dst, o.size))
	}
	cur := int(src)
	t := o.kernel.Now()
	for s := 0; s < o.stages; s++ {
		// Perfect shuffle then switch setting chosen by destination bit.
		cur = (cur<<1 | cur>>(o.stages-1)) & (o.size - 1)
		bit := (int(dst) >> (o.stages - 1 - s)) & 1
		cur = cur&^1 | bit
		depart := t
		if free := o.linkFree[s][cur]; free > depart {
			o.stats.StageConflicts.Inc()
			depart = free
		}
		o.linkFree[s][cur] = depart + o.hop
		t = depart + o.hop
	}
	// Each routed message reserves stages×hop link-cycles; windowed, that
	// is the multistage fabric's occupancy.
	o.tsBusy.Add(uint64(o.stages) * uint64(o.hop))
	return t
}

// Send implements Network.
func (o *Omega) Send(src, dst NodeID, m msg.Message) {
	h := o.handler(dst)
	at := o.route(src, dst)
	o.scheduleDeliver(at, src, dst, h, m)
}

// Broadcast implements Network: no hardware broadcast; one routed message
// per destination, so broadcasts directly create stage conflicts.
func (o *Omega) Broadcast(src NodeID, m msg.Message, except ...NodeID) int {
	rec := o.openBroadcast(src, m)
	n := 0
	for _, id := range o.order {
		if excluded(id, src, except) {
			continue
		}
		o.scheduleCopy(o.route(src, id), rec, id)
		n++
	}
	return o.closeBroadcast(rec, n)
}

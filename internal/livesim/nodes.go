package livesim

import (
	"fmt"

	"twobit/internal/addr"
	"twobit/internal/msg"
	"twobit/internal/obs"
)

// Global states, two bits as in the paper.
const (
	stAbsent uint8 = iota
	stPresent1
	stPresentStar
	stPresentM
)

// frame is one cached copy.
type frame struct {
	data     uint64
	modified bool
}

// procReq is one blocking processor reference.
type procReq struct {
	ref     addr.Ref
	version uint64
	resp    chan uint64
}

// cacheNode is a processor-cache pair: one goroutine owning its frames.
type cacheNode struct {
	m       *Machine
	idx     int
	inbox   chan msg.Message
	reqCh   chan *procReq
	quit    chan struct{}
	stopped chan struct{}
	frames  map[addr.Block]*frame

	// pending reference state (only touched by this node's goroutine)
	pend       *procReq
	pendPhase  uint8 // 0 none, 1 await MGRANTED, 2 await get
	pendResult uint64

	// obs counters, registered before the goroutine starts and written
	// only by it. Names mirror the deterministic simulator's.
	obsRefs      *obs.Counter // "cache<k>/refs"
	obsMisses    *obs.Counter // "cache<k>/misses"
	obsMRequests *obs.Counter // "cache<k>/mrequests" (§3.2.4 upgrades)
	obsInvs      *obs.Counter // "cache<k>/invalidations" applied to a held copy
}

func newCacheNode(m *Machine, idx int) *cacheNode {
	c := &cacheNode{
		m:       m,
		idx:     idx,
		inbox:   make(chan msg.Message, m.cfg.ChanDepth),
		reqCh:   make(chan *procReq),
		quit:    make(chan struct{}),
		stopped: make(chan struct{}),
		frames:  make(map[addr.Block]*frame),
	}
	prefix := fmt.Sprintf("cache%d", idx)
	c.obsRefs = m.cfg.Obs.Counter(prefix + "/refs")
	c.obsMisses = m.cfg.Obs.Counter(prefix + "/misses")
	c.obsMRequests = m.cfg.Obs.Counter(prefix + "/mrequests")
	c.obsInvs = m.cfg.Obs.Counter(prefix + "/invalidations")
	return c
}

// access is called from the processor goroutine.
func (c *cacheNode) access(ref addr.Ref) uint64 {
	var version uint64
	if ref.Write {
		version = c.m.oracle.newVersion()
	}
	req := &procReq{ref: ref, version: version, resp: make(chan uint64)}
	c.reqCh <- req
	v := <-req.resp
	if !ref.Write {
		if err := c.m.oracle.observeRead(c.idx, ref.Block, v); err != nil {
			c.m.violation(fmt.Errorf("proc %d: %w", c.idx, err))
		}
	}
	return v
}

func (c *cacheNode) loop() {
	defer close(c.stopped)
	for {
		select {
		case <-c.quit:
			return
		case m := <-c.inbox:
			c.handleMsg(m)
			c.m.done()
		case req := <-c.reqCh:
			c.handleReq(req)
		}
	}
}

func (c *cacheNode) sendCtrl(b addr.Block, m msg.Message) {
	c.m.send(c.m.ctrlFor(b).inbox, m)
}

// handleReq runs the §3.2 cache-side protocol for one reference, servicing
// external commands from the inbox while it waits.
func (c *cacheNode) handleReq(req *procReq) {
	b := req.ref.Block
	c.obsRefs.Inc()
	if f, ok := c.frames[b]; ok {
		if !req.ref.Write {
			req.resp <- f.data
			return
		}
		if f.modified {
			f.data = req.version
			c.m.oracle.commit(c.idx, b, req.version)
			req.resp <- req.version
			return
		}
		// §3.2.4: MREQUEST.
		c.obsMRequests.Inc()
		c.pend, c.pendPhase = req, 1
		c.sendCtrl(b, msg.Message{Kind: msg.KindMRequest, Block: b, Cache: c.idx})
		c.waitPend()
		return
	}
	// Miss: §3.2.1 replacement, then REQUEST.
	c.obsMisses.Inc()
	c.evictFor(b)
	rw := msg.Read
	if req.ref.Write {
		rw = msg.Write
	}
	c.pend, c.pendPhase = req, 2
	c.sendCtrl(b, msg.Message{Kind: msg.KindRequest, Block: b, Cache: c.idx, RW: rw})
	c.waitPend()
}

// evictFor frees capacity for block b if the cache is full.
func (c *cacheNode) evictFor(b addr.Block) {
	if len(c.frames) < c.m.cfg.CacheBlocks {
		return
	}
	for old, f := range c.frames {
		if old == b {
			continue
		}
		if f.modified {
			c.sendCtrl(old, msg.Message{Kind: msg.KindEject, Block: old, Cache: c.idx, RW: msg.Write})
			c.sendCtrl(old, msg.Message{Kind: msg.KindPut, Block: old, Cache: c.idx, Data: f.data})
		} else {
			c.sendCtrl(old, msg.Message{Kind: msg.KindEject, Block: old, Cache: c.idx, RW: msg.Read})
		}
		delete(c.frames, old)
		return
	}
}

// waitPend services the inbox until the pending reference resolves.
func (c *cacheNode) waitPend() {
	for c.pend != nil {
		select {
		case m := <-c.inbox:
			c.handleMsg(m)
			c.m.done()
		case <-c.quit:
			return
		}
	}
}

func (c *cacheNode) finish(v uint64) {
	req := c.pend
	c.pend, c.pendPhase = nil, 0
	req.resp <- v
}

func (c *cacheNode) handleMsg(m msg.Message) {
	switch m.Kind {
	case msg.KindBroadInv:
		if m.Cache == c.idx {
			return // exempted cache k
		}
		if _, held := c.frames[m.Block]; held {
			c.obsInvs.Inc()
		}
		delete(c.frames, m.Block)
		// §3.2.5: treat as MGRANTED(·, false).
		if c.pend != nil && c.pendPhase == 1 && c.pend.ref.Block == m.Block {
			c.pendPhase = 2
			c.sendCtrl(m.Block, msg.Message{Kind: msg.KindRequest, Block: m.Block, Cache: c.idx, RW: msg.Write})
		}
	case msg.KindBroadQuery:
		f, ok := c.frames[m.Block]
		if !ok || !f.modified {
			return // only the modifying cache responds
		}
		c.sendCtrl(m.Block, msg.Message{Kind: msg.KindPut, Block: m.Block, Cache: c.idx, Data: f.data})
		if m.RW == msg.Read {
			f.modified = false
		} else {
			delete(c.frames, m.Block)
		}
	case msg.KindMGranted:
		if c.pend == nil || c.pendPhase != 1 || c.pend.ref.Block != m.Block {
			if m.Ok {
				c.sendCtrl(m.Block, msg.Message{Kind: msg.KindMAck, Block: m.Block, Cache: c.idx, Ok: false})
			}
			return
		}
		if !m.Ok {
			delete(c.frames, m.Block)
			c.pendPhase = 2
			c.sendCtrl(m.Block, msg.Message{Kind: msg.KindRequest, Block: m.Block, Cache: c.idx, RW: msg.Write})
			return
		}
		f := c.frames[m.Block]
		f.modified = true
		f.data = c.pend.version
		c.m.oracle.commit(c.idx, m.Block, c.pend.version)
		c.sendCtrl(m.Block, msg.Message{Kind: msg.KindMAck, Block: m.Block, Cache: c.idx, Ok: true})
		c.finish(c.pend.version)
	case msg.KindGet:
		if c.pend == nil || c.pendPhase != 2 || c.pend.ref.Block != m.Block {
			panic(fmt.Sprintf("livesim: cache %d: unsolicited %v", c.idx, m))
		}
		c.evictFor(m.Block)
		f := &frame{data: m.Data}
		c.frames[m.Block] = f
		if c.pend.ref.Write {
			f.modified = true
			f.data = c.pend.version
			c.m.oracle.commit(c.idx, m.Block, c.pend.version)
			c.finish(c.pend.version)
			return
		}
		c.finish(m.Data)
	default:
		panic(fmt.Sprintf("livesim: cache %d: unexpected %v", c.idx, m))
	}
}

// ctrlNode is one memory controller: a single goroutine, so it services
// one command at a time (§3.2.5 option 1).
type ctrlNode struct {
	m       *Machine
	idx     int
	inbox   chan msg.Message
	quit    chan struct{}
	stopped chan struct{}
	states  map[addr.Block]uint8
	memory  map[addr.Block]uint64
	buffer  []msg.Message // commands deferred while a transaction waits

	// obs counters, registered before the goroutine starts and written
	// only by it. Names mirror the deterministic simulator's.
	obsBroadcasts *obs.Counter    // "ctrl<j>/broadcasts"
	obsStateTo    [4]*obs.Counter // "ctrl<j>/dir_to_*" transition counts
}

// ctrlStateSuffix matches internal/core's stateCounterSuffix, indexed by
// the st* constants, so the two simulators' transition counters line up.
var ctrlStateSuffix = [4]string{"dir_to_absent", "dir_to_present1", "dir_to_present_star", "dir_to_present_m"}

func newCtrlNode(m *Machine, idx int) *ctrlNode {
	c := &ctrlNode{
		m:       m,
		idx:     idx,
		inbox:   make(chan msg.Message, m.cfg.ChanDepth),
		quit:    make(chan struct{}),
		stopped: make(chan struct{}),
		states:  make(map[addr.Block]uint8),
		memory:  make(map[addr.Block]uint64),
	}
	prefix := fmt.Sprintf("ctrl%d", idx)
	c.obsBroadcasts = m.cfg.Obs.Counter(prefix + "/broadcasts")
	for s := range c.obsStateTo {
		c.obsStateTo[s] = m.cfg.Obs.Counter(prefix + "/" + ctrlStateSuffix[s])
	}
	return c
}

// setState is the directory-write choke point: every transition is
// counted (only when the state actually changes, as in internal/core).
func (c *ctrlNode) setState(b addr.Block, st uint8) {
	if c.states[b] != st {
		c.obsStateTo[st].Inc()
	}
	c.states[b] = st
}

func (c *ctrlNode) loop() {
	defer close(c.stopped)
	for {
		var m msg.Message
		if len(c.buffer) > 0 {
			m, c.buffer = c.buffer[0], c.buffer[1:]
		} else {
			select {
			case <-c.quit:
				return
			case m = <-c.inbox:
			}
		}
		c.service(m)
		c.m.done()
	}
}

func (c *ctrlNode) sendCache(k int, m msg.Message) {
	c.m.send(c.m.caches[k].inbox, m)
}

// broadcast sends m to every cache except k.
func (c *ctrlNode) broadcast(m msg.Message, k int) {
	c.obsBroadcasts.Inc()
	for i := range c.m.caches {
		if i == k {
			continue
		}
		c.sendCache(i, m)
	}
}

// awaitPut returns the data of the put for block b, taking it from the
// deferred buffer if one is already there (a put buffered while a
// different transaction waited), otherwise consuming inbox traffic and
// buffering unrelated commands. A put produced by a racing eviction
// subsumes that eviction's EJECT, which is dropped from the buffer.
func (c *ctrlNode) awaitPut(b addr.Block) uint64 {
	take := func(put msg.Message) uint64 {
		c.m.done()
		c.dropEject(b, put.Cache) // its write-back is this put
		return put.Data
	}
	for i, m := range c.buffer {
		if m.Kind == msg.KindPut && m.Block == b {
			c.buffer = append(c.buffer[:i], c.buffer[i+1:]...)
			return take(m)
		}
	}
	for {
		m := <-c.inbox
		if m.Kind == msg.KindPut && m.Block == b {
			return take(m)
		}
		c.buffer = append(c.buffer, m)
	}
}

// awaitMAck consumes inbox traffic until the MACK for block b arrives.
func (c *ctrlNode) awaitMAck(b addr.Block) bool {
	for {
		m := <-c.inbox
		if m.Kind == msg.KindMAck && m.Block == b {
			c.m.done()
			return m.Ok
		}
		c.buffer = append(c.buffer, m)
	}
}

func (c *ctrlNode) service(m msg.Message) {
	b := m.Block
	k := m.Cache
	switch m.Kind {
	case msg.KindRequest:
		if m.RW == msg.Read {
			c.readMiss(k, b)
		} else {
			c.writeMiss(k, b)
		}
	case msg.KindMRequest:
		c.mrequest(k, b)
	case msg.KindEject:
		if m.RW == msg.Read {
			if c.states[b] == stPresent1 {
				c.setState(b, stAbsent)
			}
			return
		}
		data := c.awaitPut(b)
		c.memory[b] = data
		if c.states[b] == stPresentM {
			c.setState(b, stAbsent)
		}
	case msg.KindPut:
		// A put with no waiting transaction belongs to an EJECT("write")
		// sitting in the buffer; hold it until that EJECT is serviced.
		// Re-buffering keeps the pair adjacent for awaitPut... but the
		// EJECT precedes the put in arrival order, so when the EJECT is
		// serviced its awaitPut drains the inbox — this put, however, was
		// already consumed here. Apply it directly: write back and settle
		// the state, then drop the buffered EJECT.
		c.memory[b] = m.Data
		if c.states[b] == stPresentM {
			c.setState(b, stAbsent)
		}
		c.dropEject(b, k)
	case msg.KindMAck:
		panic(fmt.Sprintf("livesim: controller %d: stray %v", c.idx, m))
	default:
		panic(fmt.Sprintf("livesim: controller %d: unexpected %v", c.idx, m))
	}
}

// readMiss implements §3.2.2.
func (c *ctrlNode) readMiss(k int, b addr.Block) {
	switch c.states[b] {
	case stAbsent:
		c.sendCache(k, msg.Message{Kind: msg.KindGet, Block: b, Cache: k, Data: c.memory[b]})
		c.setState(b, stPresent1)
	case stPresent1, stPresentStar:
		c.sendCache(k, msg.Message{Kind: msg.KindGet, Block: b, Cache: k, Data: c.memory[b]})
		c.setState(b, stPresentStar)
	case stPresentM:
		c.broadcast(msg.Message{Kind: msg.KindBroadQuery, Block: b, RW: msg.Read, Cache: k}, k)
		data := c.awaitPut(b)
		c.memory[b] = data
		c.sendCache(k, msg.Message{Kind: msg.KindGet, Block: b, Cache: k, Data: data})
		c.setState(b, stPresentStar)
	}
}

// writeMiss implements §3.2.3.
func (c *ctrlNode) writeMiss(k int, b addr.Block) {
	switch c.states[b] {
	case stAbsent:
		c.sendCache(k, msg.Message{Kind: msg.KindGet, Block: b, Cache: k, Data: c.memory[b]})
	case stPresent1, stPresentStar:
		c.broadcast(msg.Message{Kind: msg.KindBroadInv, Block: b, Cache: k}, k)
		c.deleteQueuedMRequests(b, k)
		c.sendCache(k, msg.Message{Kind: msg.KindGet, Block: b, Cache: k, Data: c.memory[b]})
	case stPresentM:
		c.broadcast(msg.Message{Kind: msg.KindBroadQuery, Block: b, RW: msg.Write, Cache: k}, k)
		data := c.awaitPut(b)
		c.memory[b] = data
		c.sendCache(k, msg.Message{Kind: msg.KindGet, Block: b, Cache: k, Data: data})
	}
	c.setState(b, stPresentM)
}

// mrequest implements §3.2.4 with the grant-acknowledgement that closes
// the phantom-owner race (see internal/core's package comment).
func (c *ctrlNode) mrequest(k int, b addr.Block) {
	switch c.states[b] {
	case stPresent1, stPresentStar:
		if c.states[b] == stPresentStar {
			c.broadcast(msg.Message{Kind: msg.KindBroadInv, Block: b, Cache: k}, k)
			c.deleteQueuedMRequests(b, k)
		}
		c.sendCache(k, msg.Message{Kind: msg.KindMGranted, Block: b, Cache: k, Ok: true})
		if c.awaitMAck(b) {
			c.setState(b, stPresentM)
		} else {
			c.setState(b, stAbsent)
		}
	default:
		c.sendCache(k, msg.Message{Kind: msg.KindMGranted, Block: b, Cache: k, Ok: false})
	}
}

// deleteQueuedMRequests is the §3.2.5 queue deletion, applied to the
// deferred-command buffer.
func (c *ctrlNode) deleteQueuedMRequests(b addr.Block, except int) {
	c.discard(func(m msg.Message) bool {
		return m.Kind == msg.KindMRequest && m.Block == b && m.Cache != except
	})
}

// dropEject discards cache k's buffered EJECT(k,b,"write"), whose
// write-back a put has just performed.
func (c *ctrlNode) dropEject(b addr.Block, k int) {
	c.discard(func(m msg.Message) bool {
		return m.Kind == msg.KindEject && m.RW == msg.Write && m.Block == b && m.Cache == k
	})
}

// discard removes the buffered commands drop selects; they count as
// handled.
func (c *ctrlNode) discard(drop func(msg.Message) bool) {
	kept := c.buffer[:0]
	for _, m := range c.buffer {
		if drop(m) {
			c.m.done()
			continue
		}
		kept = append(kept, m)
	}
	c.buffer = kept
}

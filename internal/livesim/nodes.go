package livesim

import (
	"fmt"
	"slices"
	"sync/atomic"

	"twobit/internal/addr"
	"twobit/internal/directory"
	"twobit/internal/msg"
	"twobit/internal/obs"
	"twobit/internal/oracle"
)

// frame is one cached copy.
type frame struct {
	data     uint64
	modified bool
}

// procReq is one blocking processor reference.
type procReq struct {
	ref  addr.Ref
	resp chan uint64 // the version read or written
}

// cacheNode is a processor-cache pair: one goroutine owning its frames.
type cacheNode struct {
	m      *Machine
	idx    int
	inbox  chan msg.Message
	reqCh  chan *procReq
	frames map[addr.Block]*frame

	// pend is the reference waiting on the controller: for MGRANTED
	// while its clean copy is held, for GET once it is not. Its processor
	// is blocked on the reply, so no other request arrives meanwhile; the
	// loop goes on serving the inbox.
	pend *procReq
	// waits counts the waits on the controller, odd while one is open:
	// bumped once the reference's request is counted in flight, and again
	// as its reply releases the processor. Run's watchdog reads it.
	waits atomic.Uint64

	// obs counters (see Config.Obs).
	obsRefs      *obs.Counter // "cache<k>/refs"
	obsMisses    *obs.Counter // "cache<k>/misses"
	obsMRequests *obs.Counter // "cache<k>/mrequests" (§3.2.4 upgrades)
	obsInvs      *obs.Counter // "cache<k>/invalidations" applied to a held copy
}

func newCacheNode(m *Machine, idx int) *cacheNode {
	c := &cacheNode{
		m:      m,
		idx:    idx,
		inbox:  make(chan msg.Message, inboxDepth),
		reqCh:  make(chan *procReq),
		frames: make(map[addr.Block]*frame),
	}
	prefix := fmt.Sprintf("cache%d", idx)
	c.obsRefs = m.cfg.Obs.Counter(prefix + "/refs")
	c.obsMisses = m.cfg.Obs.Counter(prefix + "/misses")
	c.obsMRequests = m.cfg.Obs.Counter(prefix + "/mrequests")
	c.obsInvs = m.cfg.Obs.Counter(prefix + "/invalidations")
	return c
}

// access is called from the processor goroutine. A block outside the
// space is a violation, and the reference returns 0 without running.
func (c *cacheNode) access(ref addr.Ref) uint64 {
	if uint64(ref.Block) >= uint64(c.m.cfg.Blocks) {
		c.m.check(c.idx, func(*oracle.Oracle) error {
			return fmt.Errorf("access to %v beyond space of %d blocks", ref.Block, c.m.cfg.Blocks)
		})
		return 0
	}
	req := &procReq{ref: ref, resp: make(chan uint64)}
	var v uint64
	select {
	case c.reqCh <- req:
	case <-c.m.wedged:
		return 0
	}
	select {
	case v = <-req.resp:
	case <-c.m.wedged:
		return 0
	}
	if !ref.Write {
		c.m.check(c.idx, func(o *oracle.Oracle) error { return o.CheckLoad(c.idx, ref.Block, 0, v, false) })
	}
	return v
}

// loop is the node's one receive site.
func (c *cacheNode) loop() {
	defer c.m.nodes.Done()
	for {
		select {
		case <-c.m.quit:
			return
		case m := <-c.inbox:
			c.handleMsg(m)
			c.m.done()
		case req := <-c.reqCh:
			c.handleReq(req)
		}
	}
}

// toCtrl sends m, from this cache, to the controller of m.Block.
func (c *cacheNode) toCtrl(m msg.Message) {
	m.Cache = c.idx
	c.m.send(c.m.ctrlFor(m.Block).inbox, m)
}

// handleReq runs the §3.2 cache side of one reference: a hit completes
// at once, anything else leaves it pending on the controller's reply.
func (c *cacheNode) handleReq(req *procReq) {
	b, f := req.ref.Block, c.frames[req.ref.Block]
	c.obsRefs.Inc()
	if f != nil && !req.ref.Write {
		req.resp <- f.data
		return
	}
	c.pend = req
	switch {
	case f != nil && f.modified:
		c.write(b, f)
	case f != nil: // §3.2.4: MREQUEST.
		c.obsMRequests.Inc()
		c.toCtrl(msg.Message{Kind: msg.KindMRequest, Block: b})
	default: // a miss: §3.2.1 replacement, then REQUEST
		c.obsMisses.Inc()
		c.evict()
		rw := msg.Read
		if req.ref.Write {
			rw = msg.Write
		}
		c.toCtrl(msg.Message{Kind: msg.KindRequest, Block: b, RW: rw})
	}
	if c.pend != nil {
		c.waits.Add(1)
	}
}

// evict frees a frame if the cache is full (§3.2.1).
func (c *cacheNode) evict() {
	if len(c.frames) < c.m.cfg.CacheBlocks {
		return
	}
	for old, f := range c.frames {
		if f.modified {
			c.toCtrl(msg.Message{Kind: msg.KindEject, Block: old, RW: msg.Write})
			c.toCtrl(msg.Message{Kind: msg.KindPut, Block: old, Data: f.data})
		} else {
			c.toCtrl(msg.Message{Kind: msg.KindEject, Block: old, RW: msg.Read})
		}
		delete(c.frames, old)
		return
	}
}

// pending reports whether the pending reference is on block b.
func (c *cacheNode) pending(b addr.Block) bool { return c.pend != nil && c.pend.ref.Block == b }

func (c *cacheNode) finish(v uint64) {
	if c.waits.Load()&1 == 1 {
		c.waits.Add(1)
	}
	c.pend.resp <- v
	c.pend = nil
}

// write completes the pending store into f, block b's frame: a new
// version becomes the block's current value at this instant.
func (c *cacheNode) write(b addr.Block, f *frame) {
	v := c.m.versions.Add(1)
	f.modified, f.data = true, v
	c.m.check(c.idx, func(o *oracle.Oracle) error {
		o.Commit(b, v)
		return o.NoteWrite(c.idx, b, v)
	})
	c.finish(v)
}

// rerequest turns the pending MREQUEST on b, its copy gone, into a write
// REQUEST (§3.2.5: a BROADINV while waiting reads as MGRANTED(false)).
func (c *cacheNode) rerequest(b addr.Block) {
	c.toCtrl(msg.Message{Kind: msg.KindRequest, Block: b, RW: msg.Write})
}

func (c *cacheNode) handleMsg(m msg.Message) {
	switch m.Kind {
	case msg.KindBroadInv:
		if c.m.dropBroadInv {
			return
		}
		if _, held := c.frames[m.Block]; !held || m.Cache == c.idx {
			return // nothing to invalidate, or the exempted cache k
		}
		c.obsInvs.Inc()
		delete(c.frames, m.Block)
		if c.pending(m.Block) {
			c.rerequest(m.Block)
		}
	case msg.KindBroadQuery:
		f, ok := c.frames[m.Block]
		if !ok || !f.modified {
			return // only the modifying cache responds
		}
		c.toCtrl(msg.Message{Kind: msg.KindPut, Block: m.Block, Data: f.data})
		if m.RW == msg.Read {
			f.modified = false
		} else {
			delete(c.frames, m.Block)
		}
	case msg.KindMGranted:
		switch f := c.frames[m.Block]; {
		case !c.pending(m.Block) || f == nil: // a grant nobody here awaits
			if m.Ok {
				c.toCtrl(msg.Message{Kind: msg.KindMAck, Block: m.Block, Ok: false})
			}
		case !m.Ok:
			delete(c.frames, m.Block)
			c.rerequest(m.Block)
		default:
			if !c.m.dropMAck {
				c.toCtrl(msg.Message{Kind: msg.KindMAck, Block: m.Block, Ok: true})
			}
			c.write(m.Block, f)
		}
	case msg.KindGet:
		if !c.pending(m.Block) || c.frames[m.Block] != nil {
			panic(fmt.Sprintf("livesim: cache %d: unsolicited %v", c.idx, m))
		}
		f := &frame{data: m.Data}
		c.frames[m.Block] = f
		if c.pend.ref.Write {
			c.write(m.Block, f)
		} else {
			c.finish(m.Data)
		}
	default:
		panic(fmt.Sprintf("livesim: cache %d: unexpected %v", c.idx, m))
	}
}

// ctrlNode is one memory controller: a single goroutine, so it services
// one command at a time (§3.2.5 option 1). Commands that arrive while a
// transaction waits for its PUT or MACK are deferred and replayed in
// order; the §3.2.5 queued-MREQUEST deletion runs over them.
type ctrlNode struct {
	m      *Machine
	idx    int
	inbox  chan msg.Message
	states *directory.TwoBitMap // by the block's index in the module
	memory []uint64             // likewise

	// open is the command whose transaction waits for its reply — an
	// MREQUEST's MACK, a REQUEST's or an EJECT's PUT — or has Kind
	// KindInvalid; deferred holds what arrived meanwhile, in order.
	open     msg.Message
	deferred []msg.Message
	// held is how many deferred commands the machine's inflight word
	// counts held for this node; handled counts the messages the current
	// step has finished with. Each step publishes both in one update.
	held, handled int64

	// obs counters (see Config.Obs).
	obsBroadcasts *obs.Counter    // "ctrl<j>/broadcasts"
	obsStateTo    [4]*obs.Counter // "ctrl<j>/dir_to_*" transition counts
}

func newCtrlNode(m *Machine, idx int) *ctrlNode {
	blocks := m.space.BlocksInModule(idx)
	c := &ctrlNode{
		m:      m,
		idx:    idx,
		inbox:  make(chan msg.Message, inboxDepth),
		states: directory.NewTwoBitMap(blocks),
		memory: make([]uint64, blocks),
	}
	prefix := fmt.Sprintf("ctrl%d", idx)
	c.obsBroadcasts = m.cfg.Obs.Counter(prefix + "/broadcasts")
	for s := range c.obsStateTo {
		c.obsStateTo[s] = m.cfg.Obs.Counter(prefix + "/" + directory.State(s).TransitionCounter())
	}
	return c
}

func (c *ctrlNode) state(b addr.Block) directory.State {
	return c.states.Get(c.m.space.LocalIndex(b))
}

// setState is the directory-write choke point: every transition is
// counted (only when the state actually changes, as in internal/core).
func (c *ctrlNode) setState(b addr.Block, st directory.State) {
	if c.state(b) != st {
		c.obsStateTo[st].Inc()
	}
	c.states.Set(c.m.space.LocalIndex(b), st)
}

// replies reports whether m is the reply the open transaction waits for.
func (c *ctrlNode) replies(m msg.Message) bool {
	want := msg.KindPut
	if c.open.Kind == msg.KindMRequest {
		want = msg.KindMAck
	}
	return m.Kind == want && m.Block == c.open.Block
}

// loop is the node's one receive site: with no transaction open it takes
// the oldest deferred command before the inbox.
func (c *ctrlNode) loop() {
	defer c.m.nodes.Done()
	for {
		var m msg.Message
		if c.open.Kind == msg.KindInvalid && len(c.deferred) > 0 {
			m, c.deferred = c.deferred[0], c.deferred[1:]
		} else {
			select {
			case <-c.m.quit:
				return
			case m = <-c.inbox:
			}
		}
		switch {
		case c.open.Kind == msg.KindInvalid:
			c.service(m)
			c.handled++
		case c.replies(m):
			c.complete(m)
			c.handled++
		default:
			c.deferred = append(c.deferred, m) // still in flight
		}
		c.publish()
	}
}

// publish ends one step of the loop in one atomic update of the
// machine's inflight word: the messages the step handled or discarded
// leave flight, and the deferred commands count as held while a
// transaction is open, as not held once none is. Until then the
// message the step took counts in flight but not held, so Run never
// reads the machine as wedged while this node can still act.
func (c *ctrlNode) publish() {
	var held int64
	if c.open.Kind != msg.KindInvalid {
		held = int64(len(c.deferred))
	}
	c.m.inflight.Add((held-c.held)<<heldShift - c.handled)
	c.held, c.handled = held, 0
}

func (c *ctrlNode) sendCache(k int, m msg.Message) {
	c.m.send(c.m.caches[k].inbox, m)
}

// broadcast sends m to every cache except k.
func (c *ctrlNode) broadcast(m msg.Message, k int) {
	c.obsBroadcasts.Inc()
	for i := range c.m.caches {
		if i != k {
			c.sendCache(i, m)
		}
	}
}

// invalidate broadcasts BROADINV(b) for cache k's write and applies the
// §3.2.5 queue deletion to the deferred commands: every other cache's
// MREQUEST for b is answered by the invalidation.
func (c *ctrlNode) invalidate(b addr.Block, k int) {
	c.broadcast(msg.Message{Kind: msg.KindBroadInv, Block: b, Cache: k}, k)
	c.discard(func(m msg.Message) bool {
		return m.Kind == msg.KindMRequest && m.Block == b && m.Cache != k
	})
}

func (c *ctrlNode) service(m msg.Message) {
	switch b := m.Block; m.Kind {
	case msg.KindRequest:
		c.request(m)
	case msg.KindMRequest:
		c.mrequest(m)
	case msg.KindEject:
		if m.RW == msg.Write {
			c.await(m)
			return
		}
		// core's rule for a clean EJECT without an exact translation
		// buffer (DESIGN.md §6): the EJECT may be stale — its copy
		// invalidated, the block re-fetched by another cache that
		// Present1 now counts — so Present1 degrades to the Present*
		// overcount instead of the paper's Absent.
		if c.state(b) == directory.Present1 {
			c.setState(b, directory.PresentStar)
		}
	default: // a PUT or MACK with no transaction waiting for it
		panic(fmt.Sprintf("livesim: controller %d: unexpected %v", c.idx, m))
	}
}

// request implements §3.2.2 (read) and §3.2.3 (write).
func (c *ctrlNode) request(m msg.Message) {
	b, k := m.Block, m.Cache
	switch c.state(b) {
	case directory.Absent:
	case directory.Present1, directory.PresentStar:
		if m.RW == msg.Write {
			c.invalidate(b, k)
		}
	case directory.PresentM:
		c.broadcast(msg.Message{Kind: msg.KindBroadQuery, Block: b, RW: m.RW, Cache: k}, k)
		c.await(m)
		return
	}
	c.get(m, c.memory[c.m.space.LocalIndex(b)])
}

// get answers REQUEST m with data, and moves the block to its state
// after the fill.
func (c *ctrlNode) get(m msg.Message, data uint64) {
	c.sendCache(m.Cache, msg.Message{Kind: msg.KindGet, Block: m.Block, Cache: m.Cache, Data: data})
	switch {
	case m.RW == msg.Write:
		c.setState(m.Block, directory.PresentM)
	case c.state(m.Block) == directory.Absent:
		c.setState(m.Block, directory.Present1)
	default:
		c.setState(m.Block, directory.PresentStar)
	}
}

// mrequest implements §3.2.4 with the grant-acknowledgement that closes
// the phantom-owner race (see internal/core's package comment).
func (c *ctrlNode) mrequest(m msg.Message) {
	b, k := m.Block, m.Cache
	st := c.state(b)
	if st == directory.PresentStar {
		c.invalidate(b, k)
	}
	// From Absent or PresentM the sender's copy is gone or doomed: deny.
	ok := st == directory.Present1 || st == directory.PresentStar
	c.sendCache(k, msg.Message{Kind: msg.KindMGranted, Block: b, Cache: k, Ok: ok})
	if ok {
		c.await(m)
	}
}

// await opens cmd's transaction. Its PUT may have arrived, and been
// deferred, during another transaction: then it completes now.
func (c *ctrlNode) await(cmd msg.Message) {
	c.open = cmd
	if i := slices.IndexFunc(c.deferred, c.replies); i >= 0 {
		reply := c.deferred[i]
		c.deferred = slices.Delete(c.deferred, i, i+1)
		c.complete(reply)
		c.handled++
	}
}

// complete closes the open transaction with its reply.
func (c *ctrlNode) complete(reply msg.Message) {
	cmd, b := c.open, c.open.Block
	c.open = msg.Message{}
	switch {
	case reply.Kind == msg.KindMAck && reply.Ok:
		c.setState(b, directory.PresentM)
	case reply.Kind == msg.KindMAck:
		// A denied grant (DESIGN.md §6). From Present* the BROADINV
		// doomed every copy. From Present1 none went out, so the copy
		// Present1 counts is another cache's, still live: Present1
		// stands, or the sender's write REQUEST would skip its BROADINV.
		if c.state(b) == directory.PresentStar {
			c.setState(b, directory.Absent)
		}
	default:
		// A PUT is the block's write-back, so its sender's EJECT, if
		// one is deferred, has nothing left to do.
		c.discard(func(m msg.Message) bool {
			return m.Kind == msg.KindEject && m.RW == msg.Write && m.Block == b && m.Cache == reply.Cache
		})
		c.memory[c.m.space.LocalIndex(b)] = reply.Data
		if cmd.Kind == msg.KindRequest {
			c.get(cmd, reply.Data)
		} else if c.state(b) == directory.PresentM { // an EJECT's write-back
			c.setState(b, directory.Absent)
		}
	}
}

// discard removes the deferred commands drop selects; they count as
// handled.
func (c *ctrlNode) discard(drop func(msg.Message) bool) {
	n := len(c.deferred)
	c.deferred = slices.DeleteFunc(c.deferred, drop)
	c.handled += int64(n - len(c.deferred))
}

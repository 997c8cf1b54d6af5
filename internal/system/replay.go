package system

import (
	"fmt"

	"twobit/internal/addr"
	"twobit/internal/msg"
	"twobit/internal/network"
	"twobit/internal/obs"
	"twobit/internal/proto"
	"twobit/internal/workload"
)

// Choice machines: a Machine assembled from the protocol table as usual,
// with the coherence oracle on, over a network whose deliveries are
// chosen from outside. ModelCheck drives one over fixed per-processor
// scripts; internal/mcheck drives a ReplayMachine one action at a time.
// Both reset the machine between replays instead of rebuilding it.

// choiceNet is a Network whose deliveries are externally chosen. Messages
// queue per (source, destination) pair; at any point the deliverable set
// is the head of every nonempty queue.
type choiceNet struct {
	nodes    int
	handlers []network.Handler // by node id
	order    []network.NodeID  // attach order, for Broadcast fan-out
	queues   [][]msg.Message   // by src*nodes + dst
	stats    network.Stats
}

func newChoiceNet(nodes int) *choiceNet {
	return &choiceNet{
		nodes:    nodes,
		handlers: make([]network.Handler, nodes),
		queues:   make([][]msg.Message, nodes*nodes),
	}
}

func (c *choiceNet) Attach(id network.NodeID, h network.Handler) {
	if c.handlers[id] != nil {
		panic(fmt.Sprintf("system: choice network node %d attached twice", id))
	}
	c.handlers[id] = h
	c.order = append(c.order, id)
}

func (c *choiceNet) Send(src, dst network.NodeID, m msg.Message) {
	if c.handlers[dst] == nil {
		panic(fmt.Sprintf("system: choice network send to unattached node %d", dst))
	}
	c.stats.Messages.Inc()
	i := int(src)*c.nodes + int(dst)
	c.queues[i] = append(c.queues[i], m)
}

func (c *choiceNet) Broadcast(src network.NodeID, m msg.Message, except ...network.NodeID) int {
	c.stats.Broadcasts.Inc()
	n := 0
	for _, id := range c.order {
		skip := id == src
		for _, e := range except {
			if id == e {
				skip = true
			}
		}
		if skip {
			continue
		}
		c.Send(src, id, m)
		n++
	}
	return n
}

func (c *choiceNet) Stats() *network.Stats { return &c.stats }

// Observe implements network.Network. The choice network stays
// uninstrumented: exploration cares about states, not timings.
func (c *choiceNet) Observe(*obs.Recorder, func(network.NodeID) string) {}

// reset empties every queue, keeping the attachments.
func (c *choiceNet) reset() {
	for i := range c.queues {
		c.queues[i] = c.queues[i][:0]
	}
	c.stats = network.Stats{}
}

// pending returns the messages queued from src to dst, in delivery order;
// the caller must not retain or mutate them.
func (c *choiceNet) pending(src, dst network.NodeID) []msg.Message {
	if uint(src) >= uint(c.nodes) || uint(dst) >= uint(c.nodes) {
		return nil
	}
	return c.queues[int(src)*c.nodes+int(dst)]
}

// deliverable appends the (src,dst) pairs with a message queued to out,
// in (src,dst) order.
func (c *choiceNet) deliverable(out [][2]network.NodeID) [][2]network.NodeID {
	for i, q := range c.queues {
		if len(q) > 0 {
			out = append(out, [2]network.NodeID{network.NodeID(i / c.nodes), network.NodeID(i % c.nodes)})
		}
	}
	return out
}

// deliver pops the head of the (src,dst) queue and hands it to dst.
func (c *choiceNet) deliver(src, dst network.NodeID) error {
	q := c.pending(src, dst)
	if len(q) == 0 {
		return fmt.Errorf("system: nothing queued from node %d to node %d", src, dst)
	}
	m := q[0]
	copy(q, q[1:])
	c.queues[int(src)*c.nodes+int(dst)] = q[:len(q)-1]
	c.handlers[dst].Deliver(src, m)
	return nil
}

// newChoiceMachine assembles cfg running gen on a delivery-choice
// network, with the oracle on in coherence (non-strict) mode — schedules
// reorder deliveries arbitrarily — and tracing, observability and jitter
// off.
func newChoiceMachine(cfg Config, gen workload.Generator) (*Machine, *choiceNet, error) {
	cfg.Oracle = true
	cfg.TraceWriter = nil
	cfg.Obs = nil
	cfg.NetJitter = 0
	var cn *choiceNet
	m, err := newMachine(cfg, gen, nil, nil, func(t proto.Topology) network.Network {
		cn = newChoiceNet(t.Nodes())
		return cn
	})
	if err != nil {
		return nil, nil, err
	}
	m.strict = false
	return m, cn, nil
}

// resetChoice restores a choice machine to its freshly-built state.
func (m *Machine) resetChoice() {
	m.kernel.Reset()
	m.reset(m.cfg, m.gen, m.oracle)
	m.strict = false
}

// ReplayStep is one externally chosen action: either one processor
// reference issue or the delivery of the head of one (src,dst) queue.
type ReplayStep struct {
	Issue bool
	// Issue fields.
	Proc int
	Ref  addr.Ref
	// Delivery fields (network node ids).
	Src, Dst network.NodeID
}

// replayGen hands the machine exactly the reference the current step
// specifies. Next is only ever called synchronously under
// ReplayMachine.Step, which plants the reference first.
type replayGen struct {
	blocks int
	next   addr.Ref
}

func (g *replayGen) Blocks() int       { return g.blocks }
func (g *replayGen) Next(int) addr.Ref { return g.next }

// ReplayMachine drives a Machine one schedule action at a time over a
// delivery-choice network. Between steps every timed event has run, so
// the machine sits at exactly the drained choice points internal/mcheck
// enumerates.
type ReplayMachine struct {
	m      *Machine
	cn     *choiceNet
	gen    *replayGen
	busy   []bool
	issued []int
}

// NewReplayMachine assembles a schedule-driven machine over blocks
// addressable blocks. The network kind in cfg is ignored (the
// delivery-choice network is substituted), the oracle is forced on in
// coherence (non-strict) mode, and tracing and observability are
// disabled.
func NewReplayMachine(cfg Config, blocks int) (*ReplayMachine, error) {
	gen := &replayGen{blocks: blocks}
	m, cn, err := newChoiceMachine(cfg, gen)
	if err != nil {
		return nil, err
	}
	r := &ReplayMachine{
		m: m, cn: cn, gen: gen,
		busy:   make([]bool, cfg.Procs),
		issued: make([]int, cfg.Procs),
	}
	m.refDone = func(p int) { r.busy[p] = false }
	return r, nil
}

// Reset returns the machine to its freshly-built state by resetting every
// component in place, as a Runner resets a pooled machine.
func (r *ReplayMachine) Reset() {
	r.m.resetChoice()
	clear(r.busy)
	clear(r.issued)
}

// Step applies one schedule action and drains all resulting timed events.
// A protocol handler's panic propagates; the machine must be Reset before
// it is used again.
func (r *ReplayMachine) Step(s ReplayStep) error {
	if s.Issue {
		if s.Proc < 0 || s.Proc >= r.m.cfg.Procs {
			return fmt.Errorf("system: replay issue to processor %d of %d", s.Proc, r.m.cfg.Procs)
		}
		if r.busy[s.Proc] {
			return fmt.Errorf("system: replay issue to busy processor %d", s.Proc)
		}
		if int(s.Ref.Block) >= r.gen.blocks {
			return fmt.Errorf("system: replay issue beyond block space: %v", s.Ref.Block)
		}
		r.gen.next = s.Ref
		r.busy[s.Proc] = true
		r.issued[s.Proc]++
		r.m.issue(s.Proc, 1)
	} else if err := r.cn.deliver(s.Src, s.Dst); err != nil {
		return err
	}
	r.m.kernel.Run()
	return nil
}

// Machine exposes the driven machine.
func (r *ReplayMachine) Machine() *Machine { return r.m }

// Busy reports whether processor p has a reference outstanding.
func (r *ReplayMachine) Busy(p int) bool { return r.busy[p] }

// Issued returns how many references processor p has issued.
func (r *ReplayMachine) Issued(p int) int { return r.issued[p] }

// Pending returns the in-flight messages queued from src to dst, in
// delivery order. The slice is the queue itself: read it before the next
// Step or Reset, and do not modify it.
func (r *ReplayMachine) Pending(src, dst network.NodeID) []msg.Message {
	return r.cn.pending(src, dst)
}

// Errs returns the coherence violations the oracle has recorded so far.
func (r *ReplayMachine) Errs() []error { return r.m.errs }

package system

import (
	"fmt"

	"twobit/internal/addr"
	"twobit/internal/msg"
	"twobit/internal/network"
	"twobit/internal/obs"
	"twobit/internal/sim"
)

// The paper closes: "The protocols and associated hardware design need to
// be refined (and proven correct)." ModelCheck is a bounded answer: for a
// small scenario it exhaustively enumerates every order in which the
// interconnection network could deliver messages — respecting only the
// per-(source,destination) FIFO guarantee the protocols assume — and
// verifies, on every complete interleaving, that all references finish
// (no deadlock), the coherence oracle holds, and the quiescent
// invariants hold. Replay-based DFS: each path rebuilds the machine and
// replays the choice prefix, so components need no snapshotting.

// MCScenario is a model-checking scenario: fixed per-processor scripts on
// a machine configuration. The network kind is ignored (a delivery-choice
// network is substituted); jitter and trace settings are ignored too.
type MCScenario struct {
	Config  Config
	Scripts [][]addr.Ref // per processor; len(Scripts) must equal Config.Procs
	Blocks  int          // address-space size
	// MaxPaths caps the exploration (0 means 1<<20). If the cap is hit the
	// result reports Truncated and the partial path count.
	MaxPaths int
}

// MCResult summarizes an exploration.
type MCResult struct {
	Paths     int  // complete interleavings verified
	Truncated bool // exploration stopped at MaxPaths
	MaxDepth  int  // longest delivery sequence seen
}

// mcGen replays fixed scripts through the workload interface.
type mcGen struct {
	scripts [][]addr.Ref
	pos     []int
	blocks  int
}

func (g *mcGen) Blocks() int { return g.blocks }

func (g *mcGen) Next(proc int) addr.Ref {
	r := g.scripts[proc][g.pos[proc]]
	g.pos[proc]++
	return r
}

// choiceNet is a Network whose deliveries are externally chosen. Messages
// queue per (source, destination) pair; at any point the deliverable set
// is the head of every nonempty queue.
type choiceNet struct {
	handlers map[network.NodeID]network.Handler
	order    []network.NodeID
	queues   map[[2]network.NodeID][]pendingMsg
	pairs    [][2]network.NodeID // first-use order, for deterministic options
	stats    network.Stats
}

type pendingMsg struct {
	src network.NodeID
	m   msg.Message
}

func newChoiceNet() *choiceNet {
	return &choiceNet{
		handlers: make(map[network.NodeID]network.Handler),
		queues:   make(map[[2]network.NodeID][]pendingMsg),
	}
}

func (c *choiceNet) Attach(id network.NodeID, h network.Handler) {
	if _, dup := c.handlers[id]; dup {
		panic(fmt.Sprintf("modelcheck: node %d attached twice", id))
	}
	c.handlers[id] = h
	c.order = append(c.order, id)
}

func (c *choiceNet) enqueue(src, dst network.NodeID, m msg.Message) {
	key := [2]network.NodeID{src, dst}
	if _, seen := c.queues[key]; !seen {
		c.pairs = append(c.pairs, key)
	}
	c.queues[key] = append(c.queues[key], pendingMsg{src: src, m: m})
}

func (c *choiceNet) Send(src, dst network.NodeID, m msg.Message) {
	if _, ok := c.handlers[dst]; !ok {
		panic(fmt.Sprintf("modelcheck: send to unattached node %d", dst))
	}
	c.stats.Messages.Inc()
	c.enqueue(src, dst, m)
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

// Observe implements network.Network. The model checker's network stays
// uninstrumented: exploration rebuilds the machine per path and cares
// about states, not timings.
func (c *choiceNet) Observe(*obs.Recorder, func(network.NodeID) string) {}

// options returns the deliverable pairs (nonempty queues) in stable order.
func (c *choiceNet) options() [][2]network.NodeID {
	var out [][2]network.NodeID
	for _, key := range c.pairs {
		if len(c.queues[key]) > 0 {
			out = append(out, key)
		}
	}
	return out
}

// deliver pops the head of the i-th deliverable pair and hands it to the
// destination.
func (c *choiceNet) deliver(i int) {
	opts := c.options()
	key := opts[i]
	q := c.queues[key]
	pm := q[0]
	c.queues[key] = q[1:]
	c.handlers[key[1]].Deliver(pm.src, pm.m)
}

// ModelCheck exhaustively explores sc and returns the exploration summary.
// It returns an error describing the first interleaving (as a choice
// sequence) on which a deadlock, coherence violation, or invariant
// violation occurs.
func ModelCheck(sc MCScenario) (MCResult, error) {
	if len(sc.Scripts) != sc.Config.Procs {
		return MCResult{}, fmt.Errorf("modelcheck: %d scripts for %d processors", len(sc.Scripts), sc.Config.Procs)
	}
	if sc.Blocks < 1 {
		return MCResult{}, fmt.Errorf("modelcheck: need a positive block count")
	}
	maxPaths := sc.MaxPaths
	if maxPaths <= 0 {
		maxPaths = 1 << 20
	}
	var res MCResult

	// runPrefix rebuilds the machine, replays the choice prefix, and
	// returns the branching factor at its end (0 = path complete).
	runPrefix := func(prefix []uint16) (int, error) {
		cfg := sc.Config
		cfg.Oracle = true
		cfg.TraceWriter = nil
		cfg.Obs = nil
		cn := newChoiceNet()
		gen := &mcGen{scripts: sc.Scripts, pos: make([]int, len(sc.Scripts)), blocks: sc.Blocks}
		m, err := newMachine(cfg, gen, nil, nil, func(*sim.Kernel) network.Network { return cn })
		if err != nil {
			return 0, err
		}
		m.strict = false // arbitrary delivery orders: coherence, not linearizability
		for p := range sc.Scripts {
			if len(sc.Scripts[p]) > 0 {
				m.issue(p, len(sc.Scripts[p]))
			} else {
				m.completed++
			}
		}
		step := 0
		for {
			m.kernel.Run()
			if len(m.errs) > 0 {
				return 0, fmt.Errorf("modelcheck: path %v: %w", prefix, m.errs[0])
			}
			opts := cn.options()
			if len(opts) == 0 {
				break
			}
			if step < len(prefix) {
				cn.deliver(int(prefix[step]))
				step++
				continue
			}
			return len(opts), nil
		}
		// Path complete: every reference must have finished and the
		// protocol invariants must hold.
		if m.completed != cfg.Procs {
			return 0, fmt.Errorf("modelcheck: deadlock on path %v: %d of %d processors finished",
				prefix, m.completed, cfg.Procs)
		}
		if err := m.checkInvariants(); err != nil {
			return 0, fmt.Errorf("modelcheck: path %v: %w", prefix, err)
		}
		if step > res.MaxDepth {
			res.MaxDepth = step
		}
		res.Paths++
		return 0, nil
	}

	var dfs func(prefix []uint16) error
	dfs = func(prefix []uint16) error {
		if res.Paths >= maxPaths {
			res.Truncated = true
			return nil
		}
		branching, err := runPrefix(prefix)
		if err != nil {
			return err
		}
		for c := 0; c < branching; c++ {
			if res.Paths >= maxPaths {
				res.Truncated = true
				return nil
			}
			if err := dfs(append(prefix, uint16(c))); err != nil {
				return err
			}
		}
		return nil
	}
	if err := dfs(nil); err != nil {
		return res, err
	}
	return res, nil
}

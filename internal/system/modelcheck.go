package system

import (
	"fmt"

	"twobit/internal/addr"
	"twobit/internal/network"
)

// The paper closes: "The protocols and associated hardware design need to
// be refined (and proven correct)." ModelCheck is a bounded answer: for a
// small scenario it exhaustively enumerates every order in which the
// interconnection network could deliver messages — respecting only the
// per-(source,destination) FIFO guarantee the protocols assume — and
// verifies, on every complete interleaving, that all references finish
// (no deadlock), the coherence oracle holds, and the quiescent
// invariants hold. Replay-based DFS: each path resets the machine and
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
	gen := &mcGen{scripts: sc.Scripts, pos: make([]int, len(sc.Scripts)), blocks: sc.Blocks}
	m, cn, err := newChoiceMachine(sc.Config, gen)
	if err != nil {
		return MCResult{}, err
	}
	var res MCResult
	var opts [][2]network.NodeID

	// runPrefix resets the machine, replays the choice prefix, and
	// returns the branching factor at its end (0 = path complete).
	runPrefix := func(prefix []uint16) (int, error) {
		m.resetChoice()
		clear(gen.pos)
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
			opts = cn.deliverable(opts[:0])
			if len(opts) == 0 {
				break
			}
			if step < len(prefix) {
				o := opts[prefix[step]]
				if err := cn.deliver(o[0], o[1]); err != nil {
					return 0, err
				}
				step++
				continue
			}
			return len(opts), nil
		}
		// Path complete: every reference must have finished and the
		// protocol invariants must hold.
		if m.completed != sc.Config.Procs {
			return 0, fmt.Errorf("modelcheck: deadlock on path %v: %d of %d processors finished",
				prefix, m.completed, sc.Config.Procs)
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

package mcheck

import "fmt"

// stateRec is one canonical state in the reachable graph. The concrete
// machine is never stored — components are not snapshotted — so each
// record keeps only the action that discovered it plus a parent pointer,
// and the state is rebuilt by resetting the one machine and replaying the
// action path.
type stateRec struct {
	parent int32
	act    Action
	depth  int32
	rest   bool
}

type edge struct {
	from, to int32
	deliver  bool
}

type explorer struct {
	cfg     Config
	enc     *encoder
	m       *machine
	ids     map[string]int32
	recs    []stateRec
	edges   []edge
	scratch []Action
}

// Check enumerates every state reachable within cfg's reference bound
// and proves coherence, value correctness on every explored transition,
// deadlock freedom and progress over the closure,
// or returns the first violation with a replayable counterexample
// trace. The error return is for configuration and internal replay
// errors only; a refuted property is reported in Result.Violation.
func Check(cfg Config) (Result, error) {
	m, err := newMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	e := &explorer{
		cfg: cfg,
		enc: newEncoder(cfg),
		m:   m,
		ids: make(map[string]int32),
	}
	return e.run()
}

// path returns the action sequence from the initial state to id.
func (e *explorer) path(id int32) []Action {
	e.scratch = e.scratch[:0]
	for cur := id; cur > 0; cur = e.recs[cur].parent {
		e.scratch = append(e.scratch, e.recs[cur].act)
	}
	for i, j := 0, len(e.scratch)-1; i < j; i, j = i+1, j-1 {
		e.scratch[i], e.scratch[j] = e.scratch[j], e.scratch[i]
	}
	return e.scratch
}

// rebuild resets the machine and replays id's action path on it.
// Replaying a path that was applied successfully once cannot fail; an
// error here is an internal defect (e.g. a nondeterministic component).
func (e *explorer) rebuild(id int32) error {
	e.m.rm.Reset()
	for i, a := range e.path(id) {
		if err := e.m.apply(a); err != nil {
			return fmt.Errorf("mcheck: replay diverged at step %d (%v): %w", i, a, err)
		}
	}
	return nil
}

// violation finalizes a property refutation: the counterexample trace
// is the concrete action path to the violating state, annotated with
// per-step fingerprints by one more replay.
func (e *explorer) violation(v *Violation, id int32, extra *Action) (*Violation, error) {
	actions := append([]Action(nil), e.path(id)...)
	if extra != nil {
		actions = append(actions, *extra)
	}
	t, err := e.buildTrace(actions, v)
	if err != nil {
		return nil, err
	}
	v.Trace = t
	return v, nil
}

// buildTrace replays actions from the initial state, recording the
// fingerprint after each step. A step that panics (possible only under
// injected defects) records fingerprint 0 and must be last.
func (e *explorer) buildTrace(actions []Action, v *Violation) (Trace, error) {
	h := e.m
	h.rm.Reset()
	t := Trace{
		Cfg:       e.cfg,
		Init:      e.enc.fingerprint(h),
		Steps:     make([]Step, 0, len(actions)),
		Violation: v.Kind + ": " + v.Detail,
	}
	for i, a := range actions {
		if err := h.apply(a); err != nil {
			if i != len(actions)-1 {
				return Trace{}, fmt.Errorf("mcheck: trace replay crashed before its end: %w", err)
			}
			t.Steps = append(t.Steps, Step{Act: a})
			return t, nil
		}
		t.Steps = append(t.Steps, Step{Act: a, Fp: e.enc.fingerprint(h)})
	}
	return t, nil
}

func (e *explorer) run() (Result, error) {
	var res Result

	h := e.m
	e.ids[e.enc.canonicalKey(h)] = 0
	e.recs = append(e.recs, stateRec{parent: -1, rest: len(h.deliverOptions()) == 0})
	if v := checkState(h, e.recs[0].rest); v != nil {
		v, err := e.violation(v, 0, nil)
		if err != nil {
			return res, err
		}
		res.Violation = v
	}

	queue := []int32{0}
	var opts []Action
	for qi := 0; qi < len(queue) && res.Violation == nil; qi++ {
		id := queue[qi]
		depth := e.recs[id].depth
		if e.cfg.MaxDepth > 0 && int(depth) >= e.cfg.MaxDepth {
			res.Truncated = true
			continue
		}
		if err := e.rebuild(id); err != nil {
			return res, err
		}
		opts = append(opts[:0], h.deliverOptions()...)
		opts = append(opts, h.issueOptions()...)
		for oi := range opts {
			a := opts[oi]
			// Each option needs the pre-state back; applying mutates the
			// machine, so every sibling after the first replays the path.
			if oi > 0 {
				if err := e.rebuild(id); err != nil {
					return res, err
				}
			}
			var viol *Violation
			if err := h.apply(a); err != nil {
				viol = &Violation{Kind: "crash", Detail: err.Error()}
			} else {
				// The oracle judges the transition, not the state it reaches,
				// so it must run before deduplication can merge the state
				// with one reached cleanly.
				viol = checkOracle(h)
			}
			if viol != nil {
				v, verr := e.violation(viol, id, &a)
				if verr != nil {
					return res, verr
				}
				res.Violation = v
				break
			}
			key := e.enc.canonicalKey(h)
			if to, ok := e.ids[key]; ok {
				e.edges = append(e.edges, edge{from: id, to: to, deliver: a.Kind == ActDeliver})
				continue
			}
			if e.cfg.MaxStates > 0 && len(e.recs) >= e.cfg.MaxStates {
				res.Truncated = true
				continue
			}
			nid := int32(len(e.recs))
			e.ids[key] = nid
			e.recs = append(e.recs, stateRec{
				parent: id, act: a, depth: depth + 1,
				rest: len(h.deliverOptions()) == 0,
			})
			e.edges = append(e.edges, edge{from: id, to: nid, deliver: a.Kind == ActDeliver})
			if v := checkState(h, e.recs[nid].rest); v != nil {
				v, verr := e.violation(v, nid, nil)
				if verr != nil {
					return res, verr
				}
				res.Violation = v
				break
			}
			queue = append(queue, nid)
		}
	}

	res.States = len(e.recs)
	res.Edges = len(e.edges)
	for _, r := range e.recs {
		if r.rest {
			res.RestStates++
		}
		if int(r.depth) > res.Depth {
			res.Depth = int(r.depth)
		}
	}
	if res.Violation == nil && !res.Truncated {
		v, err := e.checkProgress()
		if err != nil {
			return res, err
		}
		res.Violation = v
	}
	return res, nil
}

// checkProgress proves livelock freedom over the completed closure:
// from every reachable state some rest state must be reachable through
// message deliveries alone — the machine drains without needing new
// processor references. Computed as reverse reachability from the rest
// states over deliver edges; any state left uncovered can shuffle
// messages forever without ever coming to rest.
func (e *explorer) checkProgress() (*Violation, error) {
	radj := make([][]int32, len(e.recs))
	for _, ed := range e.edges {
		if ed.deliver {
			radj[ed.to] = append(radj[ed.to], ed.from)
		}
	}
	covered := make([]bool, len(e.recs))
	var queue []int32
	for id, r := range e.recs {
		if r.rest {
			covered[id] = true
			queue = append(queue, int32(id))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		for _, from := range radj[queue[qi]] {
			if !covered[from] {
				covered[from] = true
				queue = append(queue, from)
			}
		}
	}
	for id := range e.recs {
		if !covered[id] {
			return e.violation(&Violation{
				Kind:   "livelock",
				Detail: "no rest state is reachable from this state by message deliveries alone",
			}, int32(id), nil)
		}
	}
	return nil, nil
}

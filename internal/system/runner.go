package system

import (
	"bytes"
	"fmt"

	"twobit/internal/sim"
	"twobit/internal/workload"
)

// Runner is a worker-reusable run entry point. A campaign worker that
// constructs a fresh machine per run pays the same allocations over and
// over — the event kernel's heap, the coherence oracle's tables, the
// caches, directories, serializer queues and network slabs of the
// machine graph itself, the results encoder's scratch space — and on a
// busy pool that recurring garbage serializes every worker behind the
// collector. A Runner owns those pools and reuses them across runs: the
// kernel keeps its event storage at the high-water mark
// (sim.Kernel.Reset), the oracle keeps its table capacity
// (Oracle.Reset), encoding reuses one buffer, and the entire machine
// graph is pooled per shape — a run whose config has the same structure
// (protocol, topology, cache geometry, block count; see machineShape) as
// an earlier run reuses that machine behind component Reset methods,
// constructing nothing. Configs that bind construction-time recorders
// (Obs, TraceWriter) fall back to a fresh machine.
//
// A Runner is confined to one goroutine; give each worker its own. Runs
// through a Runner are byte-identical to runs through New — pinned by
// TestRunnerReuse and TestRunnerPoolProperty, riding on the
// TestKernelResetReuse contract.
type Runner struct {
	kernel sim.Kernel
	oracle *Oracle
	buf    bytes.Buffer
	pool   map[machineShape]*Machine
	// copyIndex is the one quiescence-sweep index every machine run here
	// borrows (see run): sized by the largest machine, not once per shape.
	copyIndex []copyView
}

// NewRunner returns an empty Runner, ready to run.
func NewRunner() *Runner {
	return &Runner{oracle: NewOracle(0)}
}

// Run assembles (or reuses) a machine for cfg on the runner's pooled
// state and drives every processor through refsPerProc references,
// exactly as New + Machine.Run would.
func (r *Runner) Run(cfg Config, gen workload.Generator, refsPerProc int) (Results, error) {
	r.kernel.Reset()
	// A previous instrumented run installed its profiling hook on the
	// kernel; Reset keeps hooks, so drop it explicitly — the new
	// machine re-installs one if cfg.Obs is set.
	r.kernel.SetHook(nil)
	var o *Oracle
	if cfg.Oracle {
		o = r.oracle // newMachine / Machine.reset size and empty it
	}
	if !poolable(cfg) {
		m, err := newMachine(cfg, gen, &r.kernel, o, nil)
		if err != nil {
			return Results{}, err
		}
		return r.run(m, refsPerProc)
	}
	// Replicate newMachine's input checks before consulting the pool, so
	// invalid configs fail identically on both paths.
	if err := cfg.Validate(); err != nil {
		return Results{}, err
	}
	blocks := gen.Blocks()
	if blocks < 1 {
		return Results{}, fmt.Errorf("system: generator spans %d blocks", blocks)
	}
	shape := shapeOf(cfg, blocks)
	if m := r.pool[shape]; m != nil {
		m.reset(cfg, gen, o)
		return r.run(m, refsPerProc)
	}
	m, err := newMachine(cfg, gen, &r.kernel, o, nil)
	if err != nil {
		return Results{}, err
	}
	if r.pool == nil {
		r.pool = make(map[machineShape]*Machine)
	}
	r.pool[shape] = m
	return r.run(m, refsPerProc)
}

// run is m.Run on the runner's copy index, taken back (grown, perhaps)
// when the run ends.
func (r *Runner) run(m *Machine, refsPerProc int) (Results, error) {
	m.copyIndex = r.copyIndex
	res, err := m.Run(refsPerProc)
	r.copyIndex, m.copyIndex = m.copyIndex, nil
	return res, err
}

// PooledMachines returns the number of machine graphs currently pooled,
// for tests and telemetry.
func (r *Runner) PooledMachines() int { return len(r.pool) }

// EncodeStable encodes res through the runner's reused buffer. The
// returned bytes are a fresh copy sized to the encoding (the buffer is
// reclaimed by the next call), identical to res.EncodeStable().
func (r *Runner) EncodeStable(res Results) ([]byte, error) {
	r.buf.Reset()
	if err := res.EncodeStableTo(&r.buf); err != nil {
		return nil, err
	}
	out := make([]byte, r.buf.Len())
	copy(out, r.buf.Bytes())
	return out, nil
}

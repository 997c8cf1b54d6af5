package system

import (
	"bytes"
	"fmt"

	"twobit/internal/oracle"
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
// constructing nothing. A recorder (Obs) and a trace writer are values
// like any other: reset attaches them to the pooled machine, and the next
// run without them detaches them.
//
// A Runner is confined to one goroutine; give each worker its own. Runs
// through a Runner are byte-identical to runs through New — pinned by
// TestRunnerReuse and TestRunnerPoolProperty, riding on the
// TestKernelResetReuse contract.
type Runner struct {
	kernel sim.Kernel
	oracle *oracle.Oracle
	buf    bytes.Buffer
	pool   map[machineShape]*Machine
	// copies is the one quiescence-check index every machine run here
	// borrows (see run): sized by the largest machine, not once per shape.
	copies copyIndex
}

// NewRunner returns an empty Runner, ready to run.
func NewRunner() *Runner {
	return &Runner{oracle: oracle.New(0)}
}

// Run assembles (or reuses) a machine for cfg on the runner's pooled
// state and drives every processor through refsPerProc references,
// exactly as New + Machine.Run would.
func (r *Runner) Run(cfg Config, gen workload.Generator, refsPerProc int) (Results, error) {
	if err := cfg.Validate(); err != nil {
		return Results{}, err
	}
	blocks := gen.Blocks()
	if blocks < 1 {
		return Results{}, fmt.Errorf("system: generator spans %d blocks", blocks)
	}
	r.kernel.Reset()
	var o *oracle.Oracle
	if cfg.Oracle {
		o = r.oracle // newMachine / Machine.reset size and empty it
	}
	shape := shapeOf(cfg, blocks)
	m := r.pool[shape]
	if m != nil {
		m.reset(cfg, gen, o)
	} else {
		var err error
		if m, err = newMachine(cfg, gen, &r.kernel, o, nil); err != nil {
			return Results{}, err
		}
		if r.pool == nil {
			r.pool = make(map[machineShape]*Machine)
		}
		r.pool[shape] = m
	}
	return r.run(m, refsPerProc)
}

// run is m.Run on the runner's copy index, taken back (grown, perhaps)
// when the run ends.
func (r *Runner) run(m *Machine, refsPerProc int) (Results, error) {
	m.copies = r.copies
	res, err := m.Run(refsPerProc)
	r.copies, m.copies = m.copies, copyIndex{}
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

package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"twobit/internal/mcheck"
	"twobit/internal/proto"
	"twobit/internal/system"
)

// checkable lists the protocols the checker admits: all but the bus one.
const checkable = "two-bit, full-map, full-map+E, classical, duplication or software"

// runMcheck is twobit mcheck: the explicit-state model checker over a
// small coherence machine. It reports the closure, or the first property
// violation — a failure, exit status 1 — as a counterexample trace that
// -trace writes and -replay re-checks step by step. Fewer -sets than
// -blocks covers the replacement (EJECT) protocol.
func runMcheck(args []string, stdout, stderr io.Writer) error {
	f := newFlags("mcheck", stderr)
	var (
		protoName = f.String("protocol", "two-bit", "protocol: "+checkable)
		caches    = f.Int("caches", 2, "processor-cache pairs (2-5)")
		blocks    = f.Int("blocks", 2, "blocks in the address space (1-4)")
		sets      = f.Int("sets", 1, "cache sets, 1-way (sets < blocks forces ejects)")
		refs      = f.Int("refs", 2, "references per processor — the exhaustiveness bound (1-8)")
		nosym     = f.Bool("nosymmetry", false, "disable the cache-permutation reduction")
		maxStates = f.Int("maxstates", 0, "stop after this many states (0 = run to closure)")
		maxDepth  = f.Int("maxdepth", 0, "stop expanding beyond this action depth (0 = unlimited)")
		traceOut  = f.String("trace", "", "write the counterexample trace to this file")
		replayIn  = f.String("replay", "", "replay a recorded trace instead of exploring")
		bug       = f.String("bug", "", "inject a two-bit protocol defect: write-miss-invalidate, stashed-put-consume, or mrequest-queue-delete")
	)
	if err := f.parse(args); err != nil {
		return err
	}

	if *replayIn != "" {
		data, err := os.ReadFile(*replayIn)
		if err != nil {
			return err
		}
		t, err := mcheck.DecodeTrace(data)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "mcheck: replaying %d steps (%s, %d caches x %d blocks)\n",
			len(t.Steps), t.Cfg.Protocol, t.Cfg.Caches, t.Cfg.Blocks)
		if t.Violation != "" {
			fmt.Fprintf(stdout, "mcheck: recorded violation: %s\n", t.Violation)
		}
		if err := mcheck.Replay(t); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "mcheck: replay ok — every step reproduced its recorded fingerprint, and the recorded outcome held")
		return nil
	}

	cfg := mcheck.Config{
		Caches: *caches, Blocks: *blocks, Sets: *sets, RefsPerProc: *refs,
		NoSymmetry: *nosym, MaxStates: *maxStates, MaxDepth: *maxDepth,
	}
	var err error
	if cfg.Protocol, err = system.ParseProtocol(*protoName); err != nil {
		return usageError{fmt.Errorf("%v (want %s)", err, checkable)}
	}
	if *bug != "" {
		hooks, ok := map[string]proto.BugHooks{
			"write-miss-invalidate": {SkipWriteMissInvalidate: true},
			"stashed-put-consume":   {SkipStashedPutConsume: true},
			"mrequest-queue-delete": {SkipMRequestQueueDelete: true},
		}[*bug]
		if !ok {
			return usageError{fmt.Errorf("unknown -bug %q", *bug)}
		}
		cfg.Hooks = &hooks
	}
	if err := cfg.Validate(); err != nil {
		return usageError{err}
	}

	symmetry := "off"
	if cfg.Symmetric() {
		symmetry = "on"
	}
	fmt.Fprintf(stdout, "mcheck: %s, %d caches x %d blocks (%d sets), %d refs/proc, symmetry %s\n",
		cfg.Protocol, cfg.Caches, cfg.Blocks, cfg.Sets, cfg.RefsPerProc, symmetry)
	start := time.Now()
	res, err := mcheck.Check(cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	closure := "complete closure"
	if res.Truncated {
		closure = "TRUNCATED (bounds hit; properties proven only over the explored prefix)"
	}
	fmt.Fprintf(stdout, "mcheck: %d states, %d edges, %d rest states, depth %d — %s\n",
		res.States, res.Edges, res.RestStates, res.Depth, closure)
	fmt.Fprintf(stdout, "mcheck: %.2fs, %.0f states/s\n",
		elapsed.Seconds(), float64(res.States)/elapsed.Seconds())

	if res.Violation == nil {
		fmt.Fprintln(stdout, "mcheck: no violations — coherence, deadlock freedom and progress hold")
		return nil
	}
	fmt.Fprintf(stdout, "mcheck: VIOLATION %s\n", res.Violation)
	fmt.Fprintf(stdout, "mcheck: counterexample (%d steps):\n", len(res.Violation.Trace.Steps))
	for i, s := range res.Violation.Trace.Steps {
		fmt.Fprintf(stdout, "  %3d. %v\n", i+1, s.Act)
	}
	if *traceOut != "" {
		if err := os.WriteFile(*traceOut, mcheck.EncodeTrace(res.Violation.Trace), 0o644); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(stdout, "mcheck: trace written to %s\n", *traceOut)
	}
	return fmt.Errorf("VIOLATION %s", res.Violation)
}

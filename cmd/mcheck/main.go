// Command mcheck runs the explicit-state model checker over a small
// coherence machine and reports the closure, or the first property
// violation as a replayable counterexample trace.
//
// Prove the two-bit protocol over 3 caches sharing one block:
//
//	mcheck -caches 3 -blocks 1
//
// Cover the replacement (EJECT) protocol by making the cache smaller
// than the address space:
//
//	mcheck -caches 2 -blocks 2 -sets 1
//
// Check another protocol, or a bounded slice of a larger machine:
//
//	mcheck -protocol classical
//	mcheck -caches 3 -blocks 2 -maxstates 200000
//
// Re-check a recorded counterexample, step by step:
//
//	mcheck -replay counterexample.trace
//
// Exit status: 0 when every property holds over the (un-truncated)
// closure, 1 on a violation, 2 on usage errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"twobit/internal/mcheck"
	"twobit/internal/proto"
	"twobit/internal/system"
)

// checkable lists the protocols the checker admits: all but the bus one.
const checkable = "two-bit, full-map, full-map+E, classical, duplication or software"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, explores (or replays), reports on
// stdout and stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		protoName = fs.String("protocol", "two-bit", "protocol: "+checkable)
		caches    = fs.Int("caches", 2, "processor-cache pairs (2-5)")
		blocks    = fs.Int("blocks", 2, "blocks in the address space (1-4)")
		sets      = fs.Int("sets", 1, "cache sets, 1-way (sets < blocks forces ejects)")
		refs      = fs.Int("refs", 2, "references per processor — the exhaustiveness bound (1-8)")
		nosym     = fs.Bool("nosymmetry", false, "disable the cache-permutation reduction")
		maxStates = fs.Int("maxstates", 0, "stop after this many states (0 = run to closure)")
		maxDepth  = fs.Int("maxdepth", 0, "stop expanding beyond this action depth (0 = unlimited)")
		traceOut  = fs.String("trace", "", "write the counterexample trace to this file")
		replayIn  = fs.String("replay", "", "replay a recorded trace instead of exploring")
		bug       = fs.String("bug", "", "inject a two-bit protocol defect: write-miss-invalidate, stashed-put-consume, or mrequest-queue-delete")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// fail reports err on one line with one "mcheck: " prefix, whether or
	// not internal/mcheck minted it.
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "mcheck: "+strings.TrimPrefix(err.Error(), "mcheck: "))
		return code
	}

	if *replayIn != "" {
		data, err := os.ReadFile(*replayIn)
		if err != nil {
			return fail(2, err)
		}
		t, err := mcheck.DecodeTrace(data)
		if err != nil {
			return fail(2, err)
		}
		fmt.Fprintf(stdout, "mcheck: replaying %d steps (%s, %d caches x %d blocks)\n",
			len(t.Steps), t.Cfg.Protocol, t.Cfg.Caches, t.Cfg.Blocks)
		if t.Violation != "" {
			fmt.Fprintf(stdout, "mcheck: recorded violation: %s\n", t.Violation)
		}
		if err := mcheck.Replay(t); err != nil {
			return fail(1, err)
		}
		fmt.Fprintln(stdout, "mcheck: replay ok — every step reproduced its recorded fingerprint, and the recorded outcome held")
		return 0
	}

	cfg := mcheck.Config{
		Caches: *caches, Blocks: *blocks, Sets: *sets, RefsPerProc: *refs,
		NoSymmetry: *nosym, MaxStates: *maxStates, MaxDepth: *maxDepth,
	}
	var err error
	if cfg.Protocol, err = system.ParseProtocol(*protoName); err != nil {
		return fail(2, fmt.Errorf("%v (want %s)", err, checkable))
	}
	switch *bug {
	case "":
	case "write-miss-invalidate":
		cfg.Hooks = &proto.BugHooks{SkipWriteMissInvalidate: true}
	case "stashed-put-consume":
		cfg.Hooks = &proto.BugHooks{SkipStashedPutConsume: true}
	case "mrequest-queue-delete":
		cfg.Hooks = &proto.BugHooks{SkipMRequestQueueDelete: true}
	default:
		return fail(2, fmt.Errorf("unknown -bug %q", *bug))
	}
	if err := cfg.Validate(); err != nil {
		return fail(2, err)
	}

	fmt.Fprintf(stdout, "mcheck: %s, %d caches x %d blocks (%d sets), %d refs/proc, symmetry %s\n",
		cfg.Protocol, cfg.Caches, cfg.Blocks, cfg.Sets, cfg.RefsPerProc, onOff(cfg.Symmetric()))
	start := time.Now()
	res, err := mcheck.Check(cfg)
	if err != nil {
		return fail(2, err)
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
		return 0
	}
	fmt.Fprintf(stdout, "mcheck: VIOLATION %s\n", res.Violation)
	fmt.Fprintf(stdout, "mcheck: counterexample (%d steps):\n", len(res.Violation.Trace.Steps))
	for i, s := range res.Violation.Trace.Steps {
		fmt.Fprintf(stdout, "  %3d. %v\n", i+1, s.Act)
	}
	if *traceOut != "" {
		if err := os.WriteFile(*traceOut, mcheck.EncodeTrace(res.Violation.Trace), 0o644); err != nil {
			return fail(2, fmt.Errorf("writing trace: %w", err))
		}
		fmt.Fprintf(stdout, "mcheck: trace written to %s\n", *traceOut)
	}
	return 1
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

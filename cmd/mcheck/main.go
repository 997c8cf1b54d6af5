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
// Check the full-map baseline, or a bounded slice of a larger machine:
//
//	mcheck -protocol full-map
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
	"flag"
	"fmt"
	"os"
	"time"

	"twobit/internal/mcheck"
	"twobit/internal/proto"
)

func main() {
	var (
		protoName = flag.String("protocol", "two-bit", "protocol: two-bit, full-map or duplication")
		caches    = flag.Int("caches", 2, "processor-cache pairs (2-5)")
		blocks    = flag.Int("blocks", 2, "blocks in the address space (1-4)")
		sets      = flag.Int("sets", 1, "cache sets, 1-way (sets < blocks forces ejects)")
		refs      = flag.Int("refs", 2, "references per processor — the exhaustiveness bound (1-8)")
		nosym     = flag.Bool("nosymmetry", false, "disable the cache-permutation reduction")
		maxStates = flag.Int("maxstates", 0, "stop after this many states (0 = run to closure)")
		maxDepth  = flag.Int("maxdepth", 0, "stop expanding beyond this action depth (0 = unlimited)")
		traceOut  = flag.String("trace", "", "write the counterexample trace to this file")
		replayIn  = flag.String("replay", "", "replay a recorded trace instead of exploring")
		bug       = flag.String("bug", "", "inject a protocol defect: write-miss-invalidate, stashed-put-consume, or mrequest-queue-delete")
	)
	flag.Parse()

	if *replayIn != "" {
		replay(*replayIn)
		return
	}

	cfg := mcheck.Config{
		Caches: *caches, Blocks: *blocks, Sets: *sets, RefsPerProc: *refs,
		NoSymmetry: *nosym, MaxStates: *maxStates, MaxDepth: *maxDepth,
	}
	var err error
	if cfg.Protocol, err = mcheck.ParseProtocol(*protoName); err != nil {
		fail(2, "%v (want two-bit, full-map or duplication)", err)
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
		fail(2, "unknown -bug %q", *bug)
	}

	fmt.Printf("mcheck: %s, %d caches x %d blocks (%d sets), %d refs/proc, symmetry %s\n",
		cfg.Protocol, cfg.Caches, cfg.Blocks, cfg.Sets, cfg.RefsPerProc, onOff(!cfg.NoSymmetry))
	start := time.Now()
	res, err := mcheck.Check(cfg)
	if err != nil {
		fail(2, "%v", err)
	}
	elapsed := time.Since(start)

	closure := "complete closure"
	if res.Truncated {
		closure = "TRUNCATED (bounds hit; properties proven only over the explored prefix)"
	}
	fmt.Printf("mcheck: %d states, %d edges, %d rest states, depth %d — %s\n",
		res.States, res.Edges, res.RestStates, res.Depth, closure)
	fmt.Printf("mcheck: %.2fs, %.0f states/s\n",
		elapsed.Seconds(), float64(res.States)/elapsed.Seconds())

	if res.Violation == nil {
		fmt.Println("mcheck: no violations — coherence, deadlock freedom and progress hold")
		return
	}
	fmt.Printf("mcheck: VIOLATION %s\n", res.Violation)
	fmt.Printf("mcheck: counterexample (%d steps):\n", len(res.Violation.Trace.Steps))
	for i, s := range res.Violation.Trace.Steps {
		fmt.Printf("  %3d. %v\n", i+1, s.Act)
	}
	if *traceOut != "" {
		if err := os.WriteFile(*traceOut, mcheck.EncodeTrace(res.Violation.Trace), 0o644); err != nil {
			fail(2, "writing trace: %v", err)
		}
		fmt.Printf("mcheck: trace written to %s\n", *traceOut)
	}
	os.Exit(1)
}

func replay(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(2, "%v", err)
	}
	t, err := mcheck.DecodeTrace(data)
	if err != nil {
		fail(2, "%v", err)
	}
	fmt.Printf("mcheck: replaying %d steps (%s, %d caches x %d blocks)\n",
		len(t.Steps), t.Cfg.Protocol, t.Cfg.Caches, t.Cfg.Blocks)
	if t.Violation != "" {
		fmt.Printf("mcheck: recorded violation: %s\n", t.Violation)
	}
	if err := mcheck.Replay(t); err != nil {
		fail(1, "%v", err)
	}
	fmt.Println("mcheck: replay ok — every step reproduced its recorded fingerprint, and the recorded outcome held")
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mcheck: "+format+"\n", args...)
	os.Exit(code)
}

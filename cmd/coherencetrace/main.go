// Command coherencetrace records and exports sim-time traces from any
// run of a sweep campaign. Campaigns store only numbers; because every
// run is hermetic and seeded from (root seed, run id), any run can be
// replayed on demand with full event tracing attached, filtered, and
// exported for chrome://tracing / Perfetto:
//
//	coherencetrace -plan plan.json -run 12                         # chrome trace to stdout
//	coherencetrace -plan plan.json -run 12 -o run12.json           # ... to a file
//	coherencetrace -plan plan.json -run 12 -component cache0,ctrl0 # one cache + one controller
//	coherencetrace -plan plan.json -run 12 -addr 42                # one block's transactions
//	coherencetrace -plan plan.json -run 12 -from 100 -to 500       # a tick window
//	coherencetrace -plan plan.json -run 12 -format summary         # counters + histograms as text
//	coherencetrace -plan plan.json -run 12 -format spans           # per-reference transaction spans
//	coherencetrace -plan plan.json -run 12 -format spans -txn 812  # one transaction's causal chain
//	coherencetrace -plan plan.json -run 12 -format spans -class write_miss
//
// The spans format renders each memory reference as a flame-style span
// on its cache's track — the class span on top, its latency phases
// (req_transit, queue, memory, writeback, data_return, ...) tiling it
// below, with flow arrows chaining the phases causally. It is the
// per-transaction view of the Table 4-1 latency attribution matrix.
//
// The replay is deterministic: the same plan and run id export the same
// bytes on every invocation, so traces diff cleanly across code changes.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"twobit/internal/obs"
	"twobit/internal/sim"
	"twobit/internal/sweep"
	"twobit/internal/system"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options holds the parsed flags.
type options struct {
	plan, format, components, class, out string
	runID, ring                          int
	addr, txn, from, to                  int64
}

// run is the command: it parses args, replays the run, writes the export
// to stdout or -o and any note or error to stderr, and returns the exit
// status: 0, 1 on an error, 2 on a bad flag.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("coherencetrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.plan, "plan", "", "campaign plan JSON file ('-' for stdin)")
	fs.IntVar(&o.runID, "run", 0, "run id within the plan to replay (see sweep's store)")
	fs.StringVar(&o.format, "format", "chrome", "output: chrome (trace-event JSON), spans (transaction-span JSON), or summary (metrics text)")
	fs.StringVar(&o.components, "component", "", "comma-separated track filter (e.g. cache0,ctrl1,net); empty keeps all")
	fs.Int64Var(&o.addr, "addr", -1, "keep only events/spans for this block address (-1 keeps all)")
	fs.Int64Var(&o.txn, "txn", -1, "spans format: keep only this transaction id (-1 keeps all)")
	fs.StringVar(&o.class, "class", "", "spans format: keep only this reference class (read_miss, write_upgrade, ...)")
	fs.Int64Var(&o.from, "from", 0, "keep only events at tick ≥ from")
	fs.Int64Var(&o.to, "to", 0, "keep only events at tick ≤ to (0 = unbounded)")
	fs.IntVar(&o.ring, "ring", obs.DefaultRingCapacity, "event ring capacity; oldest events drop beyond this (also bounds span retention)")
	fs.StringVar(&o.out, "o", "", "output path (default stdout)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := o.export(stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "coherencetrace: %v\n", err)
		return 1
	}
	return 0
}

// export checks the options, replays the run and writes it in the chosen
// format. Nothing is created or truncated before the replay succeeds.
func (o *options) export(stdout, stderr io.Writer) (err error) {
	if o.plan == "" {
		return errors.New("no -plan given (the same plan file the campaign ran with)")
	}
	switch o.format {
	case "chrome", "spans", "summary":
	default:
		return fmt.Errorf("unknown -format %q (want chrome, spans, or summary)", o.format)
	}
	plan, err := sweep.ReadPlanFile(o.plan)
	if err != nil {
		return err
	}

	spansMode := o.format == "spans"
	ringCap := o.ring
	if spansMode {
		ringCap = 0 // spans bypass the event ring; skip its allocation
	}
	rec := obs.New(ringCap)
	if spansMode {
		rec.EnableSpans(o.ring)
	}
	res, err := sweep.TracePoint(plan, o.runID, rec)
	if err != nil {
		return err
	}

	// Stream through one buffer regardless of destination: trace exports
	// run to hundreds of thousands of lines, and writing them unbuffered
	// to stdout costs a syscall per event.
	dst := stdout
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		dst = f
	}
	w := bufio.NewWriterSize(dst, 1<<16)

	switch o.format {
	case "chrome":
		f := obs.Filter{
			HasBlock: o.addr >= 0,
			Block:    o.addr,
			From:     sim.Time(o.from),
			To:       sim.Time(o.to),
		}
		if o.components != "" {
			f.Components = strings.Split(o.components, ",")
		}
		if err := obs.WriteChromeTrace(w, rec, f); err != nil {
			return err
		}
		if n := rec.Dropped(); n > 0 {
			fmt.Fprintf(stderr, "note: ring dropped %d oldest events; rerun with -ring %d for the full run\n",
				n, nextPow2(rec.EventCount()+int(n)))
		}
	case "spans":
		f := obs.SpanFilter{
			Txn:      o.txn,
			Class:    o.class,
			HasBlock: o.addr >= 0,
			Block:    o.addr,
		}
		if err := obs.WriteSpanTrace(w, rec.Spans(), f); err != nil {
			return err
		}
		if n := rec.Spans().Truncated(); n > 0 {
			fmt.Fprintf(stderr, "note: span retention dropped %d newest spans; rerun with -ring %d for the full run\n",
				n, nextPow2(len(rec.Spans().Finished())+int(n)))
		}
	case "summary":
		if err := writeSummary(w, rec, res); err != nil {
			return err
		}
	}
	return w.Flush()
}

// writeSummary renders the run's metrics snapshot as readable text: one
// line per counter, and count/mean/p50/p99/max per histogram.
func writeSummary(w io.Writer, rec *obs.Recorder, res system.Results) error {
	snap := rec.Snapshot()
	fmt.Fprintf(w, "%s\n\n", res.String())
	fmt.Fprintf(w, "counters (%d):\n", len(snap.Counters))
	for _, c := range snap.Counters {
		fmt.Fprintf(w, "  %-32s %12d\n", c.Name, c.Value)
	}
	fmt.Fprintf(w, "\nhistograms (%d):\n", len(snap.Hists))
	for _, h := range snap.Hists {
		fmt.Fprintf(w, "  %-32s count %10d  mean %10.2f  p50 %6d  p99 %6d  max %6d\n",
			h.Name, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max)
	}
	fmt.Fprintf(w, "\nevents recorded: %d (dropped %d)\n", rec.EventCount(), rec.Dropped())
	return nil
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

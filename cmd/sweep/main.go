// Command sweep executes simulation campaigns: cartesian parameter grids
// of seeded runs, in parallel, with checkpointed resumption and
// deterministic output.
//
//	sweep -example > plan.json          # write a documented example plan
//	sweep -plan plan.json               # run it, store to <name>.jsonl
//	sweep -plan plan.json -workers 8    # same bytes, 8× the cores
//	sweep -plan plan.json -resume       # continue an interrupted campaign
//	sweep -plan plan.json -format csv   # aggregate as CSV instead of text
//
// The engine guarantees that the result store is byte-identical whatever
// -workers is, and that a killed campaign resumed with -resume converges
// to the byte-identical store. The aggregate view (mean over replicates,
// with min/max under -spread) folds the store into Table 4-1/4-2-shaped
// grids: rows w, columns n, one section per (protocol, network, q).
//
// A campaign can also be split into slices: slice i/n holds the run
// ids equal to i modulo n, and independent processes — even on
// different hosts sharing a filesystem — can each run one:
//
//	sweep -plan plan.json -shard 0/2 &          # process A: even run ids
//	sweep -plan plan.json -shard 1/2 &          # process B: odd run ids
//	sweep -plan plan.json -merge                # validate + canonical store
//
// Each slice is an ordered store, <plan name>.shards/s<i>of<n>.jsonl
// (override the directory with -shards), and a -shard run always
// resumes its own slice, re-executing only the runs it has not yet
// persisted. -merge interleaves the slices round-robin, checks every
// record against the plan, refuses a missing or short slice, and writes
// the canonical store — byte-identical to the store a plain workers=1
// campaign writes.
//
// Long campaigns can opt into live telemetry:
//
//	sweep -plan plan.json -workers 8 -telemetry localhost:6060
//
// serves campaign progress (runs completed, runs/s, ETA, per-worker
// utilization, checkpoint lag) as the "sweep" expvar at
// /debug/vars, plus the standard pprof profiles at /debug/pprof/ for
// diagnosing the orchestrator itself. Telemetry is wall-clock
// bookkeeping about the worker pool only — an observed campaign writes
// byte-identical stores.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the telemetry mux
	"os"
	"strings"

	"twobit/internal/report"
	"twobit/internal/sweep"
)

func main() { os.Exit(cli(os.Args[1:], os.Stderr)) }

// cli runs one invocation and returns its exit status, reporting a
// failure as one "sweep: ..." line: internal/sweep prefixes its own
// errors, main's flag errors and the OS's arrive bare.
func cli(args []string, stderr io.Writer) int {
	err := run(args)
	if err == nil {
		return 0
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "sweep: ") {
		msg = "sweep: " + msg
	}
	fmt.Fprintln(stderr, msg)
	return 1
}

func run(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	planPath := fs.String("plan", "", "campaign plan JSON file ('-' for stdin)")
	example := fs.Bool("example", false, "print a documented example plan and exit")
	workers := fs.Int("workers", 1, "worker goroutines (output is identical for any value)")
	out := fs.String("out", "", "result store path (default <plan name>.jsonl)")
	resume := fs.Bool("resume", false, "continue an interrupted campaign from the store's checkpoint")
	format := fs.String("format", "table", "aggregate output: table, csv or json")
	metric := fs.String("metric", "useless_per_ref", "metric to aggregate (see -metrics)")
	listMetrics := fs.Bool("metrics", false, "list the aggregatable metrics and exit")
	spread := fs.Bool("spread", false, "also print min/max grids across replicates")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	telemetry := fs.String("telemetry", "", "serve live campaign telemetry (expvar + pprof) on this address, e.g. localhost:6060")
	shardSpec := fs.String("shard", "", "run (or resume) slice i/n of the plan's run ids into the shard dir (e.g. 0/2)")
	merge := fs.Bool("merge", false, "merge the shard dir's slices into the canonical store, then aggregate")
	shardsDir := fs.String("shards", "", "shard directory (default <plan name>.shards)")
	_ = fs.Parse(args) // ExitOnError: a bad flag is reported, with usage, by Parse itself

	if *example {
		data, err := sweep.ExamplePlan().MarshalIndent()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}
	if *listMetrics {
		for _, n := range sweep.MetricNames() {
			fmt.Println(n)
		}
		return nil
	}
	if *planPath == "" {
		return fmt.Errorf("no -plan given (try -example for the format)")
	}

	plan, err := sweep.ReadPlanFile(*planPath)
	if err != nil {
		return err
	}
	storePath := *out
	if storePath == "" {
		storePath = plan.Name + ".jsonl"
	}
	dir := *shardsDir
	if dir == "" {
		dir = plan.Name + ".shards"
	}

	if *merge {
		return runMerge(plan, dir, storePath, *format, *metric, *spread, *quiet)
	}

	sl := sweep.Whole
	var st *sweep.Store
	if *shardSpec != "" {
		if sl, err = parseShard(*shardSpec); err != nil {
			return err
		}
		st, err = sweep.OpenSlice(dir, sl)
	} else {
		st, err = sweep.Open(storePath, *resume)
	}
	if err != nil {
		return err
	}
	total := sl.Size(plan.Size())
	if err := st.CheckPlan(plan); err != nil {
		st.Close()
		return err
	}
	done := st.Next()
	if done > 0 && !*quiet {
		fmt.Fprintf(os.Stderr, "resuming %s: %d/%d runs of slice %v checkpointed\n", plan.Name, done, total, sl)
	}
	prog := serveTelemetry(*telemetry, plan.Name, total, *quiet)
	err = sweep.ExecuteObserved(plan, sl, *workers, done, func(rec sweep.Record) error {
		if err := st.Append(rec); err != nil {
			return err
		}
		done++
		if !*quiet && (done%10 == 0 || done == total) {
			fmt.Fprintf(os.Stderr, "\r%d/%d runs", done, total)
		}
		return nil
	}, prog)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if *shardSpec != "" {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "\rslice %v of %s complete: %d runs in %s\n", sl, plan.Name, total, dir)
			fmt.Fprintf(os.Stderr, "once every slice is complete: sweep -plan ... -merge\n")
		}
		return nil
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "\rcampaign %s complete: %d runs in %s\n", plan.Name, total, storePath)
	}
	return aggregate(plan, storePath, *format, *metric, *spread)
}

// serveTelemetry publishes campaign progress as the "sweep" expvar and
// serves it (plus pprof) on addr. Returns nil when addr is empty — the
// Progress methods are nil-safe, so callers pass the result through.
func serveTelemetry(addr, name string, total int, quiet bool) *sweep.Progress {
	if addr == "" {
		return nil
	}
	prog := sweep.NewProgress(name, total)
	expvar.Publish("sweep", expvar.Func(func() any { return prog.Status() }))
	go func() {
		// Best-effort: a campaign must not die because its debug port
		// is taken.
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
		}
	}()
	if !quiet {
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/debug/vars (expvar \"sweep\"), /debug/pprof/\n", addr)
	}
	return prog
}

// parseShard parses an "i/n" shard spec.
func parseShard(spec string) (sl sweep.Slice, err error) {
	if _, err := fmt.Sscanf(spec, "%d/%d", &sl.I, &sl.N); err != nil {
		return sl, fmt.Errorf("bad -shard %q (want i/n, e.g. 0/2)", spec)
	}
	if sl.N < 1 || sl.I < 0 || sl.I >= sl.N {
		return sl, fmt.Errorf("bad -shard %q: slice must be in [0,%d)", spec, sl.N)
	}
	return sl, nil
}

// runMerge writes the canonical store from dir's slices and aggregates it.
func runMerge(plan *sweep.Plan, dir, storePath, format, metric string, spread, quiet bool) error {
	if err := sweep.WriteMergedStore(plan, dir, storePath); err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "merged %s into canonical store %s (%d runs)\n", dir, storePath, plan.Size())
	}
	return aggregate(plan, storePath, format, metric, spread)
}

// aggregate folds the whole-campaign store at storePath into grids and
// renders them.
func aggregate(plan *sweep.Plan, storePath, format, metric string, spread bool) error {
	recs, err := sweep.LoadStore(storePath)
	if err != nil {
		return err
	}
	grids, failed, err := sweep.Aggregate(plan, recs, metric)
	if err != nil {
		return err
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d of %d runs failed; see the err fields in %s\n", failed, plan.Size(), storePath)
	}
	return render(grids, format, spread, plan.Replicates)
}

// selected returns the grids to print: the mean, plus min/max when the
// spread is requested and there is more than one replicate.
func selected(gs sweep.GridSet, spread bool, replicates int) []*report.Grid {
	out := []*report.Grid{&gs.Mean}
	if spread && replicates > 1 {
		out = append(out, &gs.Min, &gs.Max)
	}
	return out
}

func render(grids []sweep.GridSet, format string, spread bool, replicates int) error {
	switch format {
	case "table":
		for _, gs := range grids {
			for _, g := range selected(gs, spread, replicates) {
				if err := g.Write(os.Stdout); err != nil {
					return err
				}
				fmt.Println()
			}
		}
		return nil
	case "csv":
		for _, gs := range grids {
			for _, g := range selected(gs, spread, replicates) {
				if err := g.WriteCSV(os.Stdout); err != nil {
					return err
				}
				fmt.Println()
			}
		}
		return nil
	case "json":
		var all []*report.Grid
		for _, gs := range grids {
			all = append(all, selected(gs, spread, replicates)...)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(all)
	default:
		return fmt.Errorf("unknown -format %q (want table, csv or json)", format)
	}
}

package main

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the telemetry mux

	"twobit/internal/report"
	"twobit/internal/sweep"
)

// runSweep is twobit sweep: it executes a campaign plan (`-example`
// prints one), a cartesian grid of seeded runs, into an ordered store,
// then folds the store into Table 4-1/4-2-shaped grids: rows w, columns
// n, one section per (protocol, network, q), the mean over replicates
// and, under -spread, min and max. The store is byte-identical whatever
// -workers is; a killed campaign resumed with -resume converges to the
// same bytes; so does the -merge of the slices that -shard i/n runs, in
// one process each, into <plan name>.shards/s<i>of<n>.jsonl. -telemetry
// serves progress as the "sweep" expvar, plus pprof: wall-clock
// bookkeeping that leaves the store's bytes as they are.
func runSweep(args []string, stdout, stderr io.Writer) error {
	f := newFlags("sweep", stderr)
	planPath := f.String("plan", "", "campaign plan JSON file ('-' for stdin)")
	example := f.Bool("example", false, "print a documented example plan and exit")
	workers := f.Int("workers", 1, "worker goroutines (output is identical for any value)")
	out := f.String("out", "", "result store path (default <plan name>.jsonl)")
	resume := f.Bool("resume", false, "continue an interrupted campaign from the store's checkpoint")
	format := f.String("format", "table", "aggregate output: table, csv or json")
	metric := f.String("metric", "useless_per_ref", "metric to aggregate (see -metrics)")
	listMetrics := f.Bool("metrics", false, "list the aggregatable metrics and exit")
	spread := f.Bool("spread", false, "also print min/max grids across replicates")
	quiet := f.Bool("quiet", false, "suppress progress output")
	telemetry := f.String("telemetry", "", "serve live campaign telemetry (expvar + pprof) on this address, e.g. localhost:6060")
	shardSpec := f.String("shard", "", "run (or resume) slice i/n of the plan's run ids into the shard dir (e.g. 0/2)")
	merge := f.Bool("merge", false, "merge the shard dir's slices into the canonical store, then aggregate")
	shardsDir := f.String("shards", "", "shard directory (default <plan name>.shards)")
	if err := f.parse(args); err != nil {
		return err
	}

	if *example {
		data, err := sweep.ExamplePlan().MarshalIndent()
		if err != nil {
			return err
		}
		_, err = stdout.Write(data)
		return err
	}
	if *listMetrics {
		for _, n := range sweep.MetricNames() {
			fmt.Fprintln(stdout, n)
		}
		return nil
	}
	agg := aggregation{format: *format, metric: *metric, spread: *spread}
	if err := agg.check(); err != nil {
		return err
	}
	sl := sweep.Whole
	if *shardSpec != "" {
		var err error
		if sl, err = parseShard(*shardSpec); err != nil {
			return err
		}
	}
	plan, storePath, err := readPlan(*planPath, *out)
	if err != nil {
		return err
	}
	dir := *shardsDir
	if dir == "" {
		dir = plan.Name + ".shards"
	}
	note := func(format string, a ...any) {
		if !*quiet {
			fmt.Fprintf(stderr, format, a...)
		}
	}

	if *merge {
		if err := sweep.WriteMergedStore(plan, dir, storePath); err != nil {
			return err
		}
		note("merged %s into canonical store %s (%d runs)\n", dir, storePath, plan.Size())
		return agg.write(stdout, stderr, plan, storePath)
	}

	var st *sweep.Store
	if *shardSpec != "" {
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
	if done > 0 {
		note("resuming %s: %d/%d runs of slice %v checkpointed\n", plan.Name, done, total, sl)
	}
	prog := serveTelemetry(*telemetry, plan.Name, total, note)
	err = sweep.ExecuteObserved(plan, sl, *workers, done, func(rec sweep.Record) error {
		if err := st.Append(rec); err != nil {
			return err
		}
		done++
		if done%10 == 0 || done == total {
			note("\r%d/%d runs", done, total)
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
		note("\rslice %v of %s complete: %d runs in %s\n", sl, plan.Name, total, dir)
		note("once every slice is complete: twobit sweep -plan ... -merge\n")
		return nil
	}
	note("\rcampaign %s complete: %d runs in %s\n", plan.Name, total, storePath)
	return agg.write(stdout, stderr, plan, storePath)
}

// serveTelemetry publishes campaign progress as the "sweep" expvar and
// serves it (plus pprof) on addr. Returns nil when addr is empty — the
// Progress methods are nil-safe, so callers pass the result through.
func serveTelemetry(addr, name string, total int, note func(string, ...any)) *sweep.Progress {
	if addr == "" {
		return nil
	}
	prog := sweep.NewProgress(name, total)
	expvar.Publish("sweep", expvar.Func(func() any { return prog.Status() }))
	go func() {
		// Best-effort: a campaign must not die because its debug port
		// is taken.
		if err := http.ListenAndServe(addr, nil); err != nil {
			note("telemetry: %v\n", err)
		}
	}()
	note("telemetry: http://%s/debug/vars (expvar \"sweep\"), /debug/pprof/\n", addr)
	return prog
}

// parseShard parses an "i/n" shard spec.
func parseShard(spec string) (sl sweep.Slice, err error) {
	if _, err := fmt.Sscanf(spec, "%d/%d", &sl.I, &sl.N); err != nil {
		return sl, usageError{fmt.Errorf("bad -shard %q (want i/n, e.g. 0/2)", spec)}
	}
	if sl.N < 1 || sl.I < 0 || sl.I >= sl.N {
		return sl, usageError{fmt.Errorf("bad -shard %q: slice must be in [0,%d)", spec, sl.N)}
	}
	return sl, nil
}

// aggregation is how a whole-campaign store is folded into grids and
// rendered.
type aggregation struct {
	format, metric string
	spread         bool
}

// check refuses a format or metric the aggregate cannot render, before
// any run executes.
func (a aggregation) check() error {
	switch a.format {
	case "table", "csv", "json":
	default:
		return usageError{fmt.Errorf("unknown -format %q (want table, csv or json)", a.format)}
	}
	if _, err := sweep.Metric(a.metric); err != nil {
		return usageError{err}
	}
	return nil
}

// write folds the store at storePath into grids and renders them: the
// mean, plus min/max under -spread when there is more than one replicate.
func (a aggregation) write(stdout, stderr io.Writer, plan *sweep.Plan, storePath string) error {
	recs, err := sweep.LoadStore(storePath)
	if err != nil {
		return err
	}
	grids, failed, err := sweep.Aggregate(plan, recs, a.metric)
	if err != nil {
		return err
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "warning: %d of %d runs failed; see the err fields in %s\n", failed, plan.Size(), storePath)
	}
	var all []*report.Grid
	for _, gs := range grids {
		all = append(all, &gs.Mean)
		if a.spread && plan.Replicates > 1 {
			all = append(all, &gs.Min, &gs.Max)
		}
	}
	if a.format == "json" {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(all)
	}
	for _, g := range all {
		write := g.Write
		if a.format == "csv" {
			write = g.WriteCSV
		}
		if err := write(stdout); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

package main

import (
	"fmt"
	"io"

	"twobit"
	"twobit/internal/model"
	"twobit/internal/obs"
	"twobit/internal/sweep"
)

// runTables is twobit tables, the paper's evaluation tables: Table 4-1
// from the §4.2 closed form and Table 4-2 from the Dubois–Briggs
// reconstruction, or, with -sim, their measured counterparts — the
// (q × w × n) campaign the paper's §4.3 defers to "future simulation
// studies", run through internal/sweep, so the grids are the same for
// any -workers value.
func runTables(args []string, stdout, stderr io.Writer) error {
	f := newFlags("tables", stderr)
	table := f.String("table", "all", "which table to print: 4.1, 4.2 or all")
	compare := f.Bool("compare", false, "print computed values side by side with the paper's")
	cost := f.Bool("cost", false, "also print the directory hardware-economy comparison (§2.4.2/§3.1)")
	viability := f.Bool("viability", false, "also print the §4.3 viability boundaries")
	sim := f.Bool("sim", false, "measure the tables by simulation through the sweep engine instead of the models")
	workers := f.Int("workers", 1, "worker goroutines for -sim (the grids are identical for any value)")
	refs := f.Int("refs", 2000, "references per processor for -sim")
	latency := f.Bool("latency", false, "with -sim, also print Table 4-1 (measured): the per-reference latency attribution matrix (phase × class) from transaction spans")
	if err := f.parse(args); err != nil {
		return err
	}
	if *table != "4.1" && *table != "4.2" && *table != "all" {
		return usageError{fmt.Errorf("unknown table %q (want 4.1, 4.2 or all)", *table)}
	}
	var err error
	if *sim {
		err = f.onlyReads("-sim", "sim", "table", "cost", "viability", "workers", "refs", "latency")
		if err == nil && *refs < 1 { // the plan would read 0 as its default, 2,000
			err = usageError{fmt.Errorf("-refs must be ≥ 1, got %d", *refs)}
		}
	} else {
		err = f.onlyReads("tables without -sim", "table", "compare", "cost", "viability")
	}
	if err != nil {
		return err
	}

	if *cost {
		printCost(stdout)
		fmt.Fprintln(stdout)
	}
	if *viability {
		printViability(stdout)
		fmt.Fprintln(stdout)
	}
	if *sim {
		return printSim(stdout, *table, *workers, *refs, *latency)
	}
	if *table != "4.2" {
		print41(stdout, *compare)
	}
	if *table == "all" {
		fmt.Fprintln(stdout)
	}
	if *table != "4.1" {
		print42(stdout, *compare)
	}
	return nil
}

// simQs maps the tables' three sharing levels onto shared-reference
// probabilities, matching experiment E3 (EXPERIMENTS.md).
var simQs = []float64{0.01, 0.05, 0.10}

// simPlan is the measured-counterpart campaign: the two-bit scheme over
// the papers' full (q × w × n) axes.
func simPlan(refs int) *sweep.Plan {
	p := &sweep.Plan{
		Name:        "tables-sim",
		Protocols:   []string{twobit.TwoBit.String()},
		Qs:          simQs,
		Ws:          []float64{0.1, 0.2, 0.3, 0.4},
		Procs:       []int{4, 8, 16, 32, 64},
		RefsPerProc: refs,
		RootSeed:    3,
	}
	p.Normalize()
	return p
}

// printSim regenerates the tables' grids by simulation: one campaign
// through the sweep engine, aggregated once per table. Table 4-1's
// simulated counterpart is the measured useless-command overhead (what a
// full map would not have sent); Table 4-2's is the measured total
// external commands per cache per reference.
func printSim(w io.Writer, table string, workers, refs int, latency bool) error {
	plan := simPlan(refs)
	plan.Spans = latency
	recs, err := sweep.Collect(plan, workers)
	if err != nil {
		return err
	}
	if table == "4.1" || table == "all" {
		if err := printSimTable(w, plan, recs, "useless_per_ref",
			"Table 4-1 (simulated): measured useless commands per cache per memory reference"); err != nil {
			return err
		}
		if latency {
			fmt.Fprintln(w)
			if err := printLatencyMatrix(w, recs); err != nil {
				return err
			}
		}
	}
	if table == "all" {
		fmt.Fprintln(w)
	}
	if table == "4.2" || table == "all" {
		if err := printSimTable(w, plan, recs, "cmds_per_ref",
			"Table 4-2 (simulated): measured commands received per cache per memory reference"); err != nil {
			return err
		}
	}
	return nil
}

// printSimTable folds the campaign into one table-shaped grid set.
func printSimTable(w io.Writer, plan *sweep.Plan, recs []sweep.Record, metric, title string) error {
	grids, failed, err := sweep.Aggregate(plan, recs, metric)
	if err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed", failed, plan.Size())
	}
	fmt.Fprintln(w, title)
	cases := []string{"case 1 (low sharing, q=0.01)", "case 2 (moderate sharing, q=0.05)", "case 3 (high sharing, q=0.10)"}
	for i, gs := range grids {
		g := gs.Mean
		g.Title = cases[i] + ":"
		if err := g.Write(w); err != nil {
			return err
		}
	}
	return nil
}

// printLatencyMatrix renders Table 4-1 (measured): for each sharing
// case, the campaign's per-run span snapshots merged into one phase ×
// reference-class latency attribution matrix. The merge is commutative
// and associative, so the matrix is identical for any -workers value.
// The analytic line above each matrix gives the paper's §4.2 overhead
// terms at a representative grid point for side-by-side reading: the
// closed form predicts broadcast overhead (commands), the matrix shows
// where the resulting cycles actually went, phase by phase.
func printLatencyMatrix(w io.Writer, recs []sweep.Record) error {
	fmt.Fprintln(w, "Table 4-1 (measured): per-reference latency attribution, phase × class, in sim cycles")
	fmt.Fprintln(w, "(mean/p50/p99 over every reference in the campaign; share = fraction of the class's total latency)")
	cases := model.Table41Cases()
	const refN, refW = 16, 0.3 // analytic reference point: mid-grid
	for i, q := range simQs {
		var snaps []obs.Snapshot
		for _, rec := range recs {
			if rec.Q != q {
				continue
			}
			res, err := rec.Decode()
			if err != nil {
				return err
			}
			if res.Obs == nil {
				return fmt.Errorf("run %d carries no snapshot; campaign ran without spans", rec.RunID)
			}
			snaps = append(snaps, *res.Obs)
		}
		merged, err := obs.MergeAll(snaps...)
		if err != nil {
			return err
		}
		matrix, ok := obs.SpanMatrixFrom(merged)
		if !ok {
			return fmt.Errorf("case q=%g: no span series in the merged snapshot", q)
		}
		c := cases[i]
		fmt.Fprintf(w, "\ncase %d (%s sharing, q=%g), %d references:\n", i+1, c.Name, q, matrix.Refs())
		fmt.Fprintf(w, "  analytic §4.2 at n=%d, w=%.1f: T_RM=%.4f T_WM=%.4f T_WH=%.4f T_SUM=%.4f ((n-1)·T_SUM=%.3f)\n",
			refN, refW, model.TRM(c, refN, refW), model.TWM(c, refN, refW),
			model.TWH(c, refN, refW), model.TSum(c, refN, refW), model.Overhead41(c, refN, refW))
		if err := matrix.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

func printCost(w io.Writer) {
	fmt.Fprintln(w, "Directory storage per block (16-byte blocks), full map vs two-bit:")
	fmt.Fprintf(w, "%-6s %14s %12s %14s %12s %10s\n",
		"n", "full-map bits", "overhead", "two-bit bits", "overhead", "savings")
	for _, r := range twobit.CostTable(16) {
		fmt.Fprintf(w, "%-6d %14d %11.1f%% %14d %11.2f%% %9.1fx\n",
			r.Procs, r.FullMapBits, r.FullMapOverhead*100,
			r.TwoBitBits, r.TwoBitOverhead*100, r.SavingsFactor)
	}
	fmt.Fprintln(w, "(§2.4.2's example: 16 procs, 17 bits per 128-bit block = 13.3%,")
	fmt.Fprintln(w, `"almost 15% extra memory"; the paper's "256 bits" is a misprint.)`)
}

func printViability(w io.Writer) {
	fmt.Fprintln(w, "§4.3 viability boundaries: largest n with (n-1)·T_SUM < 1.0:")
	for _, c := range []twobit.SharingCase{twobit.LowSharing, twobit.ModerateSharing, twobit.HighSharing} {
		fmt.Fprintf(w, "  %-10s", c.Name+":")
		for _, wf := range []float64{0.1, 0.2, 0.3, 0.4} {
			fmt.Fprintf(w, "  w=%.1f → n≤%-3d", wf, twobit.MaxViableProcessors(c, wf, 1.0))
		}
		fmt.Fprintln(w)
	}
}

func print41(w io.Writer, compare bool) {
	if !compare {
		fmt.Fprint(w, twobit.RenderTable41())
		return
	}
	fmt.Fprint(w, twobit.CompareTable41())
	fmt.Fprintln(w, "\nKnown defects of the original: the case-1 w=0.3 n=16 cell is")
	fmt.Fprintln(w, "misprinted 0.970 (formula gives 0.070), and case-1 w=0.1 n=4")
	fmt.Fprintln(w, "rounds to 0.001 but is printed 0.000.")
}

func print42(w io.Writer, compare bool) {
	if !compare {
		fmt.Fprint(w, twobit.RenderTable42())
		return
	}
	fmt.Fprint(w, twobit.CompareTable42())
	fmt.Fprintln(w, "\nTable 4-2 is a reconstruction: the paper uses the Dubois–Briggs")
	fmt.Fprintln(w, "model [3] whose closed form it does not reproduce; a Markov chain")
	fmt.Fprintln(w, "over one shared block's global state substitutes (see DESIGN.md).")
}

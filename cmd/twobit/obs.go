package main

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"strings"

	"twobit/internal/obs"
	"twobit/internal/sim"
	"twobit/internal/sweep"
	"twobit/internal/system"
)

// obsOptions holds obs's parsed flags.
type obsOptions struct {
	flags
	plan, store, format, components, class, out string
	cols, top, runID, ring                      int
	stormMin                                    uint64
	stormFactor                                 float64
	addr, txn, from, to                         int64
}

// runObs is twobit obs, the coherence observatory. Without -run it
// renders a campaign whose plan set "obs_window" (and, for the contention
// tables, "obs_topk"): per (protocol, network, scenario) section, the
// runs' snapshots merged with the obs merge algebra, so the view is
// identical for any -workers value the campaign ran with. With -run N it
// replays run N with full event tracing attached: every run is hermetic
// and seeded from (root seed, run id), so the replay is the stored run
// and exports the same bytes on every invocation, as text, as a
// chrome://tracing trace, or as transaction spans — each memory
// reference a flame-style span on its cache's track, its latency phases
// tiling it below, chained causally: the per-transaction view of the
// Table 4-1 latency attribution matrix.
func runObs(args []string, stdout, stderr io.Writer) error {
	o := obsOptions{flags: newFlags("obs", stderr)}
	o.StringVar(&o.plan, "plan", "", "campaign plan JSON file ('-' for stdin)")
	o.StringVar(&o.format, "format", "text", "output: text, csv (window series, long form) or json; with -run: text, chrome (trace-event JSON) or spans (transaction-span JSON)")
	o.IntVar(&o.cols, "cols", 64, "heatmap width in columns (series are resampled to fit)")
	o.IntVar(&o.top, "top", 20, "rows in the hot-block table")
	o.Uint64Var(&o.stormMin, "storm-min", 8, "minimum invalidations for a window to count as a storm")
	o.Float64Var(&o.stormFactor, "storm-factor", 4, "a storm window holds at least this multiple of the mean")
	o.StringVar(&o.store, "store", "", "result store path (default <plan name>.jsonl)")
	o.IntVar(&o.runID, "run", 0, "replay this run id of the plan with tracing attached (unset: render the campaign's store)")
	o.StringVar(&o.components, "component", "", "chrome: comma-separated track filter (e.g. cache0,ctrl1,net); empty keeps all")
	o.Int64Var(&o.addr, "addr", -1, "keep only events/spans for this block address (-1 keeps all)")
	o.Int64Var(&o.txn, "txn", -1, "spans: keep only this transaction id (-1 keeps all)")
	o.StringVar(&o.class, "class", "", "spans: keep only this reference class (read_miss, write_upgrade, ...)")
	o.Int64Var(&o.from, "from", 0, "chrome: keep only events at tick ≥ from")
	o.Int64Var(&o.to, "to", 0, "chrome: keep only events at tick ≤ to (0 = unbounded)")
	o.IntVar(&o.ring, "ring", obs.DefaultRingCapacity, "event ring capacity; oldest events drop beyond this (also bounds span retention)")
	o.StringVar(&o.out, "o", "", "output path for -run (default stdout)")
	if err := o.parse(args); err != nil {
		return err
	}
	replay := o.given("run")
	if err := o.check(replay); err != nil {
		return err
	}
	plan, store, err := readPlan(o.plan, o.store)
	if err != nil {
		return err
	}
	if replay {
		return o.replay(plan, stdout, stderr)
	}
	recs, err := sweep.LoadStore(store)
	if err != nil {
		return err
	}
	if err := sweep.CheckPrefix(plan, recs); err != nil {
		return err
	}
	groups, err := sweep.ObsGroups(plan, recs)
	if err != nil {
		return err
	}
	switch o.format {
	case "csv":
		return writeCSV(stdout, groups)
	case "json":
		return writeJSON(stdout, groups, o.stormMin, o.stormFactor)
	}
	w := bufio.NewWriter(stdout)
	for i, g := range groups {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "== %s/%s", g.Protocol, g.Net)
		if g.Scenario != "" {
			fmt.Fprintf(w, "/%s", g.Scenario)
		}
		fmt.Fprintf(w, " ==  (%d runs merged", g.Runs)
		if g.Failed > 0 {
			fmt.Fprintf(w, ", %d failed", g.Failed)
		}
		fmt.Fprint(w, ")\n")
		o.writeText(w, g.Snap)
	}
	return w.Flush()
}

// check refuses a flag or format the chosen view does not read.
func (o *obsOptions) check(replay bool) error {
	text := []string{"plan", "format", "cols", "top", "storm-min", "storm-factor"}
	var err error
	if replay {
		err = o.onlyReads("-run", append(text, "run", "component", "addr", "txn", "class", "from", "to", "ring", "o")...)
	} else {
		err = o.onlyReads("obs without -run", append(text, "store")...)
	}
	if err != nil {
		return err
	}
	switch o.format {
	case "text":
	case "csv", "json":
		if replay {
			return usageError{fmt.Errorf("-format %s renders a campaign; -run replays one run as text, chrome or spans", o.format)}
		}
	case "chrome", "spans":
		if !replay {
			return usageError{fmt.Errorf("-format %s needs -run", o.format)}
		}
	default:
		return usageError{fmt.Errorf("unknown -format %q (want text, csv or json; text, chrome or spans with -run)", o.format)}
	}
	return nil
}

// replay re-runs run o.runID of plan with a recorder attached and writes
// it in the chosen format to stdout or -o. Nothing is created or
// truncated before the replay succeeds.
func (o *obsOptions) replay(plan *sweep.Plan, stdout, stderr io.Writer) error {
	spansMode := o.format == "spans"
	ringCap := o.ring
	if spansMode {
		ringCap = 0 // spans bypass the event ring; skip its allocation
	}
	rec := obs.New(ringCap)
	if spansMode {
		rec.EnableSpans(o.ring)
	}
	// The replay records what the campaign's run recorded, for the text
	// view's heatmap and contention tables.
	if plan.ObsWindow > 0 {
		rec.EnableWindows(plan.ObsWindow)
	}
	if plan.ObsTopK > 0 {
		rec.EnableContention(plan.ObsTopK)
	}
	res, err := sweep.TracePoint(plan, o.runID, rec)
	if err != nil {
		return err
	}

	if o.out == "" {
		return o.export(stdout, stderr, rec, res)
	}
	return writeFile(o.out, func(w io.Writer) error { return o.export(w, stderr, rec, res) })
}

// export writes the replayed run in the chosen format.
func (o *obsOptions) export(dst, stderr io.Writer, rec *obs.Recorder, res system.Results) error {
	// Stream through one buffer regardless of destination: trace exports
	// run to hundreds of thousands of lines, and writing them unbuffered
	// to stdout costs a syscall per event.
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
	case "text":
		fmt.Fprintf(w, "%s\n\n", res.String())
		o.writeText(w, rec.Snapshot())
		fmt.Fprintf(w, "\nevents recorded: %d (dropped %d)\n", rec.EventCount(), rec.Dropped())
	}
	return w.Flush()
}

// nextPow2 is the least power of two ≥ n, for n ≥ 1.
func nextPow2(n int) int { return 1 << bits.Len(uint(n-1)) }

// writeText renders one snapshot, a campaign section's merged one or a
// replayed run's: its counters, its histograms (count, mean, p50, p99,
// max), a windows × series heatmap (each row shaded against its own
// peak), the hot-block table joining the reference top-K with
// invalidation counts and the false-sharing profile, and the flagged
// storm windows.
func (o *obsOptions) writeText(w io.Writer, s obs.Snapshot) {
	fmt.Fprintf(w, "counters (%d):\n", len(s.Counters))
	for _, c := range s.Counters {
		fmt.Fprintf(w, "  %-32s %12d\n", c.Name, c.Value)
	}
	fmt.Fprintf(w, "histograms (%d):\n", len(s.Hists))
	for _, h := range s.Hists {
		fmt.Fprintf(w, "  %-32s count %10d  mean %10.2f  p50 %6d  p99 %6d  max %6d\n",
			h.Name, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max)
	}
	writeHeatmap(w, s.Series, o.cols)
	writeBlocks(w, s, o.top)
	writeFalseSharing(w, s, o.top)
	writeStorms(w, s, o.stormMin, o.stormFactor)
}

// shades maps a cell's fraction of the row peak to a glyph; index 0 is
// an exact zero, the rest split (0, 1] evenly.
var shades = []rune{' ', '░', '▒', '▓', '█'}

func writeHeatmap(w io.Writer, series []obs.SeriesValue, cols int) {
	if len(series) == 0 {
		fmt.Fprintln(w, "(no window series: the plan sets no obs_window)")
		return
	}
	windows := 0
	nameW := 0
	for _, sv := range series {
		if len(sv.Values) > windows {
			windows = len(sv.Values)
		}
		if len(sv.Name) > nameW {
			nameW = len(sv.Name)
		}
	}
	if windows == 0 {
		fmt.Fprintln(w, "(all series empty)")
		return
	}
	cols = min(max(cols, 1), windows)
	width := series[0].Width
	fmt.Fprintf(w, "window series: %d windows × %d cycles, resampled to %d columns; each row shaded against its own peak\n",
		windows, width, cols)
	for _, sv := range series {
		cells := resample(sv, windows, cols)
		peak := uint64(0)
		for _, v := range cells {
			if v > peak {
				peak = v
			}
		}
		var row strings.Builder
		for _, v := range cells {
			row.WriteRune(shade(v, peak))
		}
		fmt.Fprintf(w, "  %-*s |%s| peak %d\n", nameW, sv.Name, row.String(), peak)
	}
}

// resample folds a series' windows into cols cells: column j covers the
// window range [j·n/cols, (j+1)·n/cols). Sum series add within a cell
// (the cell is the coarser window's count); max and gauge series keep
// the peak (the level's high-water mark across the cell).
func resample(sv obs.SeriesValue, windows, cols int) []uint64 {
	cells := make([]uint64, cols)
	for j := 0; j < cols; j++ {
		lo, hi := j*windows/cols, (j+1)*windows/cols
		if hi > len(sv.Values) {
			hi = len(sv.Values)
		}
		for i := lo; i < hi; i++ {
			if sv.Kind == obs.SeriesSum {
				cells[j] += sv.Values[i]
			} else if sv.Values[i] > cells[j] {
				cells[j] = sv.Values[i]
			}
		}
	}
	return cells
}

func shade(v, peak uint64) rune {
	if v == 0 || peak == 0 {
		return shades[0]
	}
	i := 1 + int(uint64(len(shades)-2)*(v-1)/peak)
	return shades[i]
}

func writeBlocks(w io.Writer, s obs.Snapshot, top int) {
	if len(s.TopBlocks) == 0 {
		return
	}
	invs := make(map[uint64]int64, len(s.TopInvBlocks))
	for _, b := range s.TopInvBlocks {
		invs[b.Block] = b.Count
	}
	fs := make(map[uint64]obs.FalseShareStat, len(s.FalseSharing))
	for _, f := range s.FalseSharing {
		fs[f.Block] = f
	}
	n := len(s.TopBlocks)
	if top > 0 && top < n {
		n = top
	}
	fmt.Fprintf(w, "hot blocks (top %d of %d by references; count ≤ true+err):\n", n, len(s.TopBlocks))
	fmt.Fprintf(w, "  %10s %10s %8s %8s %8s %6s %6s %10s  %s\n",
		"block", "refs", "±err", "invs", "writes", "words", "procs", "interleav", "verdict")
	for _, b := range s.TopBlocks[:n] {
		f := fs[b.Block]
		verdict := ""
		if f.FalseShared() {
			verdict = "FALSE-SHARED"
		}
		fmt.Fprintf(w, "  %10d %10d %8d %8d %8d %6d %6d %10d  %s\n",
			b.Block, b.Count, b.Err, invs[b.Block], f.Writes,
			bits.OnesCount64(f.WordMask), bits.OnesCount64(f.ProcMask), f.Interleavings, verdict)
	}
}

// writeFalseSharing lists the blocks whose write-interleaving profile
// shows the false-sharing signature — distinct processors interleaving
// writes to distinct words. They often sit outside the refs top-K (the
// contended pool spreads traffic), so they get their own table.
func writeFalseSharing(w io.Writer, s obs.Snapshot, top int) {
	var suspects []obs.FalseShareStat
	for _, f := range s.FalseSharing {
		if f.FalseShared() {
			suspects = append(suspects, f)
		}
	}
	if len(suspects) == 0 {
		if len(s.FalseSharing) > 0 {
			fmt.Fprintln(w, "no false-sharing suspects (no block with interleaved multi-word multi-processor writes)")
		}
		return
	}
	n := len(suspects)
	if top > 0 && top < n {
		n = top
	}
	fmt.Fprintf(w, "false-sharing suspects (%d of %d watched blocks):\n", n, len(suspects))
	fmt.Fprintf(w, "  %10s %8s %6s %6s %10s\n", "block", "writes", "words", "procs", "interleav")
	for _, f := range suspects[:n] {
		fmt.Fprintf(w, "  %10d %8d %6d %6d %10d\n",
			f.Block, f.Writes, bits.OnesCount64(f.WordMask), bits.OnesCount64(f.ProcMask), f.Interleavings)
	}
}

func writeStorms(w io.Writer, s obs.Snapshot, minCount uint64, factor float64) {
	sv, ok := s.SeriesNamed("sys/invalidations")
	if !ok {
		return
	}
	storms := obs.DetectStorms(sv, minCount, factor)
	if len(storms) == 0 {
		fmt.Fprintf(w, "no invalidation storms (no window ≥ %.1f× mean and ≥ %d)\n", factor, minCount)
		return
	}
	fmt.Fprintf(w, "invalidation storms (windows ≥ %.1f× mean and ≥ %d):\n", factor, minCount)
	for _, st := range storms {
		lo := uint64(st.Window) * sv.Width
		fmt.Fprintf(w, "  window %4d  cycles [%d, %d)  invalidations %d\n", st.Window, lo, lo+sv.Width, st.Value)
	}
}

// writeCSV emits the merged window series in long form: one row per
// (section, series, window).
func writeCSV(w io.Writer, groups []sweep.ObsGroup) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"protocol", "net", "scenario", "series", "kind", "window_width", "window", "value"}); err != nil {
		return err
	}
	for _, g := range groups {
		for _, sv := range g.Snap.Series {
			for i, v := range sv.Values {
				rec := []string{
					g.Protocol, g.Net, g.Scenario, sv.Name, sv.Kind.String(),
					strconv.FormatUint(sv.Width, 10), strconv.Itoa(i), strconv.FormatUint(v, 10),
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonGroup is the JSON export shape: the merged observatory per
// section, with storms pre-computed so consumers need no detector.
type jsonGroup struct {
	Protocol     string           `json:"protocol"`
	Net          string           `json:"net"`
	Scenario     string           `json:"scenario,omitempty"`
	Runs         int              `json:"runs"`
	Failed       int              `json:"failed,omitempty"`
	Series       []jsonSeries     `json:"series,omitempty"`
	TopBlocks    []obs.BlockStat  `json:"top_blocks,omitempty"`
	TopInvBlocks []obs.BlockStat  `json:"top_inv_blocks,omitempty"`
	FalseSharing []jsonFalseShare `json:"false_sharing,omitempty"`
	Storms       []jsonStorm      `json:"storms,omitempty"`
}

type jsonSeries struct {
	Name   string   `json:"name"`
	Kind   string   `json:"kind"`
	Width  uint64   `json:"window_width"`
	Values []uint64 `json:"values"`
}

type jsonFalseShare struct {
	Block         uint64 `json:"block"`
	Writes        int64  `json:"writes"`
	Words         int    `json:"words"`
	Procs         int    `json:"procs"`
	Interleavings int64  `json:"interleavings"`
	FalseShared   bool   `json:"false_shared"`
}

type jsonStorm struct {
	Window int    `json:"window"`
	Value  uint64 `json:"invalidations"`
}

func writeJSON(w io.Writer, groups []sweep.ObsGroup, stormMin uint64, stormFactor float64) error {
	out := make([]jsonGroup, 0, len(groups))
	for _, g := range groups {
		jg := jsonGroup{
			Protocol: g.Protocol, Net: g.Net, Scenario: g.Scenario,
			Runs: g.Runs, Failed: g.Failed,
			TopBlocks:    g.Snap.TopBlocks,
			TopInvBlocks: g.Snap.TopInvBlocks,
		}
		for _, sv := range g.Snap.Series {
			jg.Series = append(jg.Series, jsonSeries{Name: sv.Name, Kind: sv.Kind.String(), Width: sv.Width, Values: sv.Values})
		}
		for _, f := range g.Snap.FalseSharing {
			jg.FalseSharing = append(jg.FalseSharing, jsonFalseShare{
				Block: f.Block, Writes: f.Writes,
				Words: bits.OnesCount64(f.WordMask), Procs: bits.OnesCount64(f.ProcMask),
				Interleavings: f.Interleavings, FalseShared: f.FalseShared(),
			})
		}
		if sv, ok := g.Snap.SeriesNamed("sys/invalidations"); ok {
			for _, st := range obs.DetectStorms(sv, stormMin, stormFactor) {
				jg.Storms = append(jg.Storms, jsonStorm{Window: st.Window, Value: st.Value})
			}
		}
		out = append(out, jg)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

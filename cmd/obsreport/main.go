// Command obsreport renders the coherence observatory view of a windowed
// campaign: per-section window-series heatmaps, the per-block contention
// attribution table (hot blocks, invalidation targets, false-sharing
// suspects) and the invalidation-storm windows.
//
//	obsreport -plan plan.json                  # heatmaps + hot blocks + storms
//	obsreport -plan plan.json -store run.jsonl # explicit store path
//	obsreport -plan plan.json -format csv      # window series, long form
//	obsreport -plan plan.json -format json     # full merged groups
//
// The campaign must have been executed with "obs_window" (and, for the
// contention tables, "obs_topk") set in the plan. Records are merged per
// (protocol, network, scenario) section with the obs merge algebra, so
// the report is identical for any -workers value the campaign ran with.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"strings"

	"twobit/internal/obs"
	"twobit/internal/sweep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "obsreport: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	planPath := flag.String("plan", "", "campaign plan JSON file ('-' for stdin)")
	store := flag.String("store", "", "result store path (default <plan name>.jsonl)")
	format := flag.String("format", "text", "output: text, csv (window series, long form) or json")
	cols := flag.Int("cols", 64, "heatmap width in columns (series are resampled to fit)")
	top := flag.Int("top", 20, "rows in the hot-block table")
	stormMin := flag.Uint64("storm-min", 8, "minimum invalidations for a window to count as a storm")
	stormFactor := flag.Float64("storm-factor", 4, "a storm window holds at least this multiple of the mean")
	flag.Parse()

	if *planPath == "" {
		return fmt.Errorf("no -plan given")
	}
	plan, err := sweep.ReadPlanFile(*planPath)
	if err != nil {
		return err
	}
	path := *store
	if path == "" {
		path = plan.Name + ".jsonl"
	}
	recs, err := sweep.LoadStore(path)
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

	switch *format {
	case "text":
		return writeText(os.Stdout, groups, *cols, *top, *stormMin, *stormFactor)
	case "csv":
		return writeCSV(os.Stdout, groups)
	case "json":
		return writeJSON(os.Stdout, groups, *stormMin, *stormFactor)
	}
	return fmt.Errorf("unknown -format %q (want text, csv or json)", *format)
}

func sectionName(g sweep.ObsGroup) string {
	name := g.Protocol + "/" + g.Net
	if g.Scenario != "" {
		name += "/" + g.Scenario
	}
	return name
}

// writeText renders the observatory: per section, a windows × series
// heatmap (each row shaded against its own peak), the hot-block table
// joining the reference top-K with invalidation counts and the
// false-sharing profile, and the flagged storm windows.
func writeText(w *os.File, groups []sweep.ObsGroup, cols, top int, stormMin uint64, stormFactor float64) error {
	for gi, g := range groups {
		if gi > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "== %s ==  (%d runs merged", sectionName(g), g.Runs)
		if g.Failed > 0 {
			fmt.Fprintf(w, ", %d failed", g.Failed)
		}
		fmt.Fprint(w, ")\n")
		writeHeatmap(w, g.Snap.Series, cols)
		writeBlocks(w, g.Snap, top)
		writeFalseSharing(w, g.Snap, top)
		writeStorms(w, g.Snap, stormMin, stormFactor)
	}
	return nil
}

// shades maps a cell's fraction of the row peak to a glyph; index 0 is
// an exact zero, the rest split (0, 1] evenly.
var shades = []rune{' ', '░', '▒', '▓', '█'}

func writeHeatmap(w *os.File, series []obs.SeriesValue, cols int) {
	if len(series) == 0 {
		fmt.Fprintln(w, "  (no window series: campaign ran without obs_window)")
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
		fmt.Fprintln(w, "  (all series empty)")
		return
	}
	if cols < 1 {
		cols = 1
	}
	if cols > windows {
		cols = windows
	}
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

func writeBlocks(w *os.File, s obs.Snapshot, top int) {
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
func writeFalseSharing(w *os.File, s obs.Snapshot, top int) {
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

func writeStorms(w *os.File, s obs.Snapshot, minCount uint64, factor float64) {
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
func writeCSV(w *os.File, groups []sweep.ObsGroup) error {
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
	TopBlocks    []jsonBlock      `json:"top_blocks,omitempty"`
	TopInvBlocks []jsonBlock      `json:"top_inv_blocks,omitempty"`
	FalseSharing []jsonFalseShare `json:"false_sharing,omitempty"`
	Storms       []jsonStorm      `json:"storms,omitempty"`
}

type jsonSeries struct {
	Name   string   `json:"name"`
	Kind   string   `json:"kind"`
	Width  uint64   `json:"window_width"`
	Values []uint64 `json:"values"`
}

type jsonBlock struct {
	Block uint64 `json:"block"`
	Count int64  `json:"count"`
	Err   int64  `json:"err,omitempty"`
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

func jsonBlocks(s []obs.BlockStat) []jsonBlock {
	out := make([]jsonBlock, 0, len(s))
	for _, b := range s {
		out = append(out, jsonBlock{Block: b.Block, Count: b.Count, Err: b.Err})
	}
	return out
}

func writeJSON(w *os.File, groups []sweep.ObsGroup, stormMin uint64, stormFactor float64) error {
	out := make([]jsonGroup, 0, len(groups))
	for _, g := range groups {
		jg := jsonGroup{
			Protocol: g.Protocol, Net: g.Net, Scenario: g.Scenario,
			Runs: g.Runs, Failed: g.Failed,
			TopBlocks:    jsonBlocks(g.Snap.TopBlocks),
			TopInvBlocks: jsonBlocks(g.Snap.TopInvBlocks),
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

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"twobit/internal/addr"
	"twobit/internal/memtrace"
	"twobit/internal/stats"
	"twobit/internal/tracegen"
)

const traceUsage = `usage:
  twobit trace list                          list built-in scenarios
  twobit trace synth [flags] -o <file>       synthesize a scenario to a chunked trace
  twobit trace inspect <file> [flags]        streaming statistics for any trace file
  twobit trace convert <in> <out> [flags]    convert between trace formats
`

// runTrace is twobit trace: it synthesizes, inspects and converts
// memory-reference traces at serving scale (see traceUsage). A scenario
// is declarative: a preset name, or a JSON spec overlaying one, plus a
// seed fully determines every reference, and synthesis streams straight
// to MTRC2, the one binary format, so a 100M-reference trace costs
// O(chunk) memory to write and to replay. A trace is MTRC2 or text, for
// hand-written fixtures; inspect and convert open either through
// memtrace.OpenFile, and never materialize an MTRC2 trace.
func runTrace(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return usageError{errors.New("need a command: list, synth, inspect or convert")}
	}
	switch args[0] {
	case "list":
		return runList(args[1:], stdout, stderr)
	case "synth":
		return runSynth(args[1:], stdout, stderr)
	case "inspect":
		return runInspect(args[1:], stdout, stderr)
	case "convert":
		return runConvert(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stderr, traceUsage)
		return nil
	}
	return usageError{fmt.Errorf("unknown command %q (want list, synth, inspect or convert)", args[0])}
}

func runList(args []string, stdout, stderr io.Writer) error {
	f := newFlags("trace list", stderr)
	if err := f.parse(args); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-14s %8s %10s %6s %8s %s\n", "scenario", "procs", "keys", "skew", "shared", "features")
	for _, s := range tracegen.Presets() {
		var features []string
		for _, ft := range []struct {
			on   bool
			name string
		}{{s.DiurnalPeriod > 0, "diurnal"}, {s.FlashEvery > 0, "flash"}, {s.ChurnEvery > 0, "churn"}, {s.FalseShareFrac > 0, "false-sharing"}} {
			if ft.on {
				features = append(features, ft.name)
			}
		}
		if features == nil {
			features = []string{"-"}
		}
		fmt.Fprintf(stdout, "%-14s %8d %10d %6.2f %8.2f %s\n", s.Name, s.Procs, s.Keys, s.Skew, s.SharedFrac, strings.Join(features, ","))
	}
	return nil
}

// loadSpec builds the scenario spec from -scenario / -spec plus flag
// overrides.
func loadSpec(scenario, specFile string, procs int, seed uint64) (tracegen.Spec, error) {
	var spec tracegen.Spec
	switch {
	case specFile != "":
		data, err := os.ReadFile(specFile)
		if err != nil {
			return spec, err
		}
		if err := json.Unmarshal(data, &spec); err != nil {
			return spec, fmt.Errorf("parsing %s: %w", specFile, err)
		}
	case scenario != "":
		// Resolve falls through silently on unknown names; surface the
		// preset error here instead of a confusing zero-field complaint.
		if _, err := tracegen.Preset(scenario); err != nil {
			return spec, err
		}
		spec.Name = scenario
	default:
		return spec, usageError{errors.New("need -scenario <name> or -spec <file> (see `twobit trace list`)")}
	}
	spec = tracegen.Resolve(spec)
	if procs > 0 {
		spec.Procs = procs
	}
	if seed > 0 {
		spec.Seed = seed
	}
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	return spec, nil
}

func runSynth(args []string, stdout, stderr io.Writer) error {
	f := newFlags("trace synth", stderr)
	var (
		scenario = f.String("scenario", "", "built-in scenario name (see `twobit trace list`)")
		specFile = f.String("spec", "", "JSON scenario spec (overlays the preset named in its \"name\" field)")
		refs     = f.Int("refs", 100000, "references per processor")
		procs    = f.Int("procs", 0, "override the scenario's processor count")
		seed     = f.Uint64("seed", 0, "override the scenario's seed")
		chunkCap = f.Int("chunk", 0, "references per chunk (0 = default)")
		out      = f.String("o", "", "output file (required)")
		quiet    = f.Bool("quiet", false, "suppress the statistics summary")
	)
	if err := f.parse(args); err != nil {
		return err
	}
	if *out == "" {
		return usageError{errors.New("synth needs -o <file>")}
	}
	spec, err := loadSpec(*scenario, *specFile, *procs, *seed)
	if err != nil {
		return err
	}
	st := tracegen.NewStreamStats(spec.Procs, 0)
	if err := writeFile(*out, func(w io.Writer) error { return tracegen.Synthesize(w, spec, *refs, *chunkCap, st) }); err != nil {
		return err
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "synthesized %s: %d procs × %d refs → %s (%d bytes, %.2f bits/ref)\n",
		spec.Name, spec.Procs, *refs, *out, fi.Size(),
		8*float64(fi.Size())/float64(st.Total()))
	if !*quiet {
		printStats(stdout, st, 8)
	}
	return nil
}

func printStats(out io.Writer, st *tracegen.StreamStats, topN int) {
	fmt.Fprintf(out, "  blocks %d, write frac %.3f, shared frac %.3f, zipf slope %.2f\n",
		st.Blocks(), st.WriteFrac(), st.SharedFrac(), st.ZipfSlope())
	top := st.TopKeys()
	if len(top) > topN {
		top = top[:topN]
	}
	for i, kc := range top {
		fmt.Fprintf(out, "  hot[%d] block %d ≈ %d refs (±%d)\n", i, kc.Block, kc.Count, kc.Err)
	}
}

// parseMixed parses flags given before, between or after the positional
// arguments, and returns the positional ones. "-" and "" are positional
// too, or the loop would never advance past them.
func parseMixed(f flags, args []string) (pos []string, err error) {
	for len(args) > 0 {
		if len(args[0]) < 2 || args[0][0] != '-' {
			pos = append(pos, args[0])
			args = args[1:]
			continue
		}
		if err := f.parse(args); err != nil {
			return nil, err
		}
		args = f.Args()
	}
	return pos, nil
}

// inspectArgs parses inspect's flags and its one trace file. -top must
// lie in 0..stats.MaxTopK: it also sizes the hot-key sketch, and a
// negative value would cut the report at an impossible row.
func inspectArgs(args []string, stderr io.Writer) (path string, top int, jsonOut bool, err error) {
	f := newFlags("trace inspect", stderr)
	topFlag := f.Int("top", 8, "hot keys to print")
	jsonFlag := f.Bool("json", false, "emit statistics as JSON")
	pos, err := parseMixed(f, args)
	if err != nil {
		return "", 0, false, err
	}
	if *topFlag < 0 || *topFlag > stats.MaxTopK {
		return "", 0, false, usageError{fmt.Errorf("inspect -top must be in 0..%d, got %d", stats.MaxTopK, *topFlag)}
	}
	if len(pos) != 1 {
		return "", 0, false, usageError{errors.New("inspect needs exactly one trace file")}
	}
	return pos[0], *topFlag, *jsonFlag, nil
}

func runInspect(args []string, stdout, stderr io.Writer) error {
	path, top, jsonOut, err := inspectArgs(args, stderr)
	if err != nil {
		return err
	}
	format, st, err := inspectFile(path, top)
	if err != nil {
		return err
	}
	topKeys := st.TopKeys()
	if len(topKeys) > top {
		topKeys = topKeys[:top]
	}
	if jsonOut {
		out := struct {
			Format     string              `json:"format"`
			Procs      int                 `json:"procs"`
			Refs       int64               `json:"refs"`
			PerProc    []int64             `json:"refs_per_proc"`
			Blocks     int                 `json:"blocks"`
			WriteFrac  float64             `json:"write_frac"`
			SharedFrac float64             `json:"shared_frac"`
			ZipfSlope  float64             `json:"zipf_slope"`
			TopKeys    []tracegen.KeyCount `json:"top_keys"`
		}{
			Format: format, Procs: len(st.PerProc()), Refs: st.Total(),
			PerProc: st.PerProc(), Blocks: st.Blocks(),
			WriteFrac: st.WriteFrac(), SharedFrac: st.SharedFrac(),
			ZipfSlope: st.ZipfSlope(), TopKeys: topKeys,
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Fprintf(stdout, "%s: %s format, %d procs, %d refs\n", path, format, len(st.PerProc()), st.Total())
	printStats(stdout, st, top)
	return nil
}

// inspectFile accumulates statistics over a trace file in its storage
// order: a chunked trace chunk by chunk in file order, so a
// 100M-reference file never materializes.
func inspectFile(path string, topK int) (string, *tracegen.StreamStats, error) {
	src, err := memtrace.OpenFile(path)
	if err != nil {
		return "", nil, err
	}
	defer memtrace.CloseSource(src)
	// The sketch needs headroom beyond the printed rows or its estimates
	// degrade; -top only limits the report.
	st := tracegen.NewStreamStats(src.Procs(), max(topK, tracegen.DefaultTopK))
	err = src.Scan(func(proc int, refs []addr.Ref) error {
		for _, r := range refs {
			st.Observe(proc, r)
		}
		return nil
	})
	return formatOf(src), st, err
}

// formatOf names the encoding memtrace.OpenFile found: a chunked trace
// opens as a stream, a text trace in memory.
func formatOf(src memtrace.Source) string {
	if _, ok := src.(*memtrace.StreamReader); ok {
		return "chunked"
	}
	return "text"
}

func runConvert(args []string, stdout, stderr io.Writer) error {
	f := newFlags("trace convert", stderr)
	var (
		format   = f.String("format", "chunked", "output format: text or chunked")
		chunkCap = f.Int("chunk", 0, "references per chunk for -format chunked (0 = default)")
	)
	pos, err := parseMixed(f, args)
	if err != nil {
		return err
	}
	if len(pos) != 2 {
		return usageError{errors.New("convert needs <in> <out>")}
	}
	in, out := pos[0], pos[1]
	write := func(src memtrace.Source, w io.Writer) error { return src.WriteChunked(w, *chunkCap) }
	switch *format {
	case "chunked":
	case "text":
		write = memtrace.Source.WriteText
	default:
		return usageError{fmt.Errorf("unknown format %q (want text or chunked)", *format)}
	}
	if a, err := os.Stat(in); err == nil {
		if b, err := os.Stat(out); err == nil && os.SameFile(a, b) {
			return usageError{fmt.Errorf("convert would overwrite its input %s", in)}
		}
	}
	src, err := memtrace.OpenFile(in)
	if err != nil {
		return err
	}
	defer memtrace.CloseSource(src)
	if err := writeFile(out, func(w io.Writer) error { return write(src, w) }); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "converted %s (%s) → %s (%s)\n", in, formatOf(src), out, *format)
	return nil
}

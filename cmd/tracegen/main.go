// Command tracegen synthesizes, inspects and converts memory-reference
// traces at serving scale.
//
// Scenarios are declarative: a preset name (or a JSON spec overlaying
// one) plus a seed fully determines every reference, and synthesis
// streams straight to the chunked trace format — a 100M-reference trace
// costs O(chunk) memory to write and to replay.
//
//	tracegen list                                # built-in scenarios
//	tracegen synth -scenario kv-serving -refs 1000000 -o kv.mtrc2
//	tracegen synth -spec custom.json -refs 500000 -procs 16 -o c.mtrc2
//	tracegen inspect kv.mtrc2                    # streaming stats, no RAM
//	tracegen convert old.trace new.mtrc2 -format chunked
//
// A trace is chunked (MTRC2, the one binary format) or text, for
// hand-written fixtures; inspect and convert open either through
// memtrace.OpenFile. Inspecting or re-chunking a chunked trace never
// materializes it.
//
// The simulator consumes the output directly:
//
//	coherencesim -trace kv.mtrc2 -protocol two-bit
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"twobit/internal/addr"
	"twobit/internal/memtrace"
	"twobit/internal/stats"
	"twobit/internal/tracegen"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const usage = `usage:
  tracegen list                          list built-in scenarios
  tracegen synth [flags] -o <file>       synthesize a scenario to a chunked trace
  tracegen inspect <file> [flags]        streaming statistics for any trace file
  tracegen convert <in> <out> [flags]    convert between trace formats
`

// flagError is a command line the flag package rejected; it has already
// printed the fault and the usage.
type flagError struct{ error }

func (e flagError) Unwrap() error { return e.error }

// usageError is a command line the command cannot use.
type usageError struct{ error }

// run is the command: it runs the subcommand args name, writes its
// output to stdout and any error to stderr as one tracegen: line, and
// returns the exit status: 0, 1 on an error, 2 on a bad command line.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	var err error
	switch args[0] {
	case "list":
		runList(stdout)
	case "synth":
		err = runSynth(args[1:], stdout, stderr)
	case "inspect":
		err = runInspect(args[1:], stdout, stderr)
	case "convert":
		err = runConvert(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usage)
	default:
		err = usageError{fmt.Errorf("unknown command %q (want list, synth, inspect or convert)", args[0])}
	}
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, new(flagError)):
		return 2
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "tracegen:") {
		msg = "tracegen: " + msg
	}
	fmt.Fprintln(stderr, msg)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

func runList(out io.Writer) {
	fmt.Fprintf(out, "%-14s %8s %10s %6s %8s %s\n", "scenario", "procs", "keys", "skew", "shared", "features")
	for _, s := range tracegen.Presets() {
		features := ""
		add := func(f string) {
			if features != "" {
				features += ","
			}
			features += f
		}
		if s.DiurnalPeriod > 0 {
			add("diurnal")
		}
		if s.FlashEvery > 0 {
			add("flash")
		}
		if s.ChurnEvery > 0 {
			add("churn")
		}
		if s.FalseShareFrac > 0 {
			add("false-sharing")
		}
		if features == "" {
			features = "-"
		}
		fmt.Fprintf(out, "%-14s %8d %10d %6.2f %8.2f %s\n", s.Name, s.Procs, s.Keys, s.Skew, s.SharedFrac, features)
	}
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
		return spec, fmt.Errorf("need -scenario <name> or -spec <file> (see `tracegen list`)")
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
	fs := flag.NewFlagSet("synth", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario = fs.String("scenario", "", "built-in scenario name (see `tracegen list`)")
		specFile = fs.String("spec", "", "JSON scenario spec (overlays the preset named in its \"name\" field)")
		refs     = fs.Int("refs", 100000, "references per processor")
		procs    = fs.Int("procs", 0, "override the scenario's processor count")
		seed     = fs.Uint64("seed", 0, "override the scenario's seed")
		chunkCap = fs.Int("chunk", 0, "references per chunk (0 = default)")
		out      = fs.String("o", "", "output file (required)")
		quiet    = fs.Bool("quiet", false, "suppress the statistics summary")
	)
	if err := fs.Parse(args); err != nil {
		return flagError{err}
	}
	if *out == "" {
		return usageError{errors.New("synth needs -o <file>")}
	}
	spec, err := loadSpec(*scenario, *specFile, *procs, *seed)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	st := tracegen.NewStreamStats(spec.Procs, 0)
	err = tracegen.Synthesize(f, spec, *refs, *chunkCap, st)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
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

// inspectArgs parses inspect's flags and its one trace file, accepting
// `inspect file -top 4` and `inspect -top 4 file` alike. -top must lie
// in 0..stats.MaxTopK: it also sizes the hot-key sketch, and a negative
// value would cut the report at an impossible row.
func inspectArgs(args []string, stderr io.Writer) (path string, top int, jsonOut bool, err error) {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topFlag := fs.Int("top", 8, "hot keys to print")
	jsonFlag := fs.Bool("json", false, "emit statistics as JSON")
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		err = fs.Parse(args[1:])
		args = args[:1]
	} else {
		err = fs.Parse(args)
		args = fs.Args()
	}
	if err != nil {
		return "", 0, false, flagError{err}
	}
	if *topFlag < 0 || *topFlag > stats.MaxTopK {
		return "", 0, false, usageError{fmt.Errorf("inspect -top must be in 0..%d, got %d", stats.MaxTopK, *topFlag)}
	}
	if len(args) != 1 {
		return "", 0, false, usageError{errors.New("inspect needs exactly one trace file")}
	}
	return args[0], *topFlag, *jsonFlag, nil
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
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		format   = fs.String("format", "chunked", "output format: text or chunked")
		chunkCap = fs.Int("chunk", 0, "references per chunk for -format chunked (0 = default)")
	)
	// Accept positional in/out before or after flags; "-" and "" are
	// positional too, or the loop would never advance past them.
	var pos []string
	for rest := args; len(rest) > 0; {
		if len(rest[0]) < 2 || rest[0][0] != '-' {
			pos = append(pos, rest[0])
			rest = rest[1:]
			continue
		}
		if err := fs.Parse(rest); err != nil {
			return flagError{err}
		}
		rest = fs.Args()
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
	outF, err := os.Create(out)
	if err != nil {
		return err
	}
	err = write(src, outF)
	if cerr := outF.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "converted %s (%s) → %s (%s)\n", in, formatOf(src), out, *format)
	return nil
}

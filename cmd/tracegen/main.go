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
// The simulator consumes the output directly:
//
//	coherencesim -trace kv.mtrc2 -protocol two-bit
package main

import (
	"bufio"
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

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		runList()
	case "synth":
		runSynth(os.Args[2:])
	case "inspect":
		runInspect(os.Args[2:])
	case "convert":
		runConvert(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "tracegen: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  tracegen list                          list built-in scenarios
  tracegen synth [flags] -o <file>       synthesize a scenario to a chunked trace
  tracegen inspect <file> [flags]        streaming statistics for any trace file
  tracegen convert <in> <out> [flags]    convert between trace formats
`)
}

func fatal(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "tracegen:") {
		msg = "tracegen: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}

func runList() {
	fmt.Printf("%-14s %8s %10s %6s %8s %s\n", "scenario", "procs", "keys", "skew", "shared", "features")
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
		fmt.Printf("%-14s %8d %10d %6.2f %8.2f %s\n", s.Name, s.Procs, s.Keys, s.Skew, s.SharedFrac, features)
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

func runSynth(args []string) {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	var (
		scenario = fs.String("scenario", "", "built-in scenario name (see `tracegen list`)")
		specFile = fs.String("spec", "", "JSON scenario spec (overlays the preset named in its \"name\" field)")
		refs     = fs.Int("refs", 100000, "references per processor")
		procs    = fs.Int("procs", 0, "override the scenario's processor count")
		seed     = fs.Uint64("seed", 0, "override the scenario's seed")
		chunkCap = fs.Int("chunk", 0, "references per chunk (0 = default)")
		out      = fs.String("o", "", "output file (required unless -cache-dir)")
		cacheDir = fs.String("cache-dir", "", "segment cache directory: reuse the cached segment for this spec if present, else synthesize into the cache (always default-chunked); -o optionally receives a copy")
		quiet    = fs.Bool("quiet", false, "suppress the statistics summary")
	)
	fs.Parse(args)
	if *out == "" && *cacheDir == "" {
		fatal(fmt.Errorf("synth needs -o <file> or -cache-dir <dir>"))
	}
	spec, err := loadSpec(*scenario, *specFile, *procs, *seed)
	if err != nil {
		fatal(err)
	}
	if *cacheDir != "" {
		path, hit, err := tracegen.EnsureSegment(*cacheDir, spec, *refs)
		if err != nil {
			fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			fatal(err)
		}
		verb := "synthesized into cache"
		if hit {
			verb = "cache hit"
		}
		fmt.Printf("%s: %s: %d procs × %d refs (%d bytes)\n", verb, path, spec.Procs, *refs, fi.Size())
		if *out != "" {
			data, err := os.ReadFile(path)
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("copied to %s\n", *out)
		}
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	st := tracegen.NewStreamStats(spec.Procs, 0)
	if err := tracegen.Synthesize(f, spec, *refs, *chunkCap, st); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fi, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("synthesized %s: %d procs × %d refs → %s (%d bytes, %.2f bits/ref)\n",
		spec.Name, spec.Procs, *refs, *out, fi.Size(),
		8*float64(fi.Size())/float64(st.Total()))
	if !*quiet {
		printStats(st, 8)
	}
}

func printStats(st *tracegen.StreamStats, topN int) {
	fmt.Printf("  blocks %d, write frac %.3f, shared frac %.3f, zipf slope %.2f\n",
		st.Blocks(), st.WriteFrac(), st.SharedFrac(), st.ZipfSlope())
	top := st.TopKeys()
	if len(top) > topN {
		top = top[:topN]
	}
	for i, kc := range top {
		fmt.Printf("  hot[%d] block %d ≈ %d refs (±%d)\n", i, kc.Block, kc.Count, kc.Err)
	}
}

// usageError is a flag the flag package rejected; it has already printed
// the fault and the usage.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// inspectArgs parses inspect's flags and its one trace file, accepting
// `inspect file -top 4` and `inspect -top 4 file` alike. -top must lie
// in 0..stats.MaxTopK: it also sizes the hot-key sketch, and a negative
// value would cut the report at an impossible row.
func inspectArgs(args []string) (path string, top int, jsonOut bool, err error) {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
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
		return "", 0, false, usageError{err}
	}
	if *topFlag < 0 || *topFlag > stats.MaxTopK {
		return "", 0, false, fmt.Errorf("inspect -top must be in 0..%d, got %d", stats.MaxTopK, *topFlag)
	}
	if len(args) != 1 {
		return "", 0, false, fmt.Errorf("inspect needs exactly one trace file")
	}
	return args[0], *topFlag, *jsonFlag, nil
}

func runInspect(args []string) {
	path, top, jsonOut, err := inspectArgs(args)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	format, st, err := inspectFile(path, top)
	if err != nil {
		fatal(err)
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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("%s: %s format, %d procs, %d refs\n", path, format, len(st.PerProc()), st.Total())
	printStats(st, top)
}

// inspectFile accumulates statistics over a trace file. Chunked traces
// are scanned streaming — a 100M-reference file never materializes.
func inspectFile(path string, topK int) (string, *tracegen.StreamStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	format, err := sniff(f)
	if err != nil {
		return "", nil, err
	}
	// The sketch needs headroom beyond the printed rows or its estimates
	// degrade; -top only limits the report.
	if topK < tracegen.DefaultTopK {
		topK = tracegen.DefaultTopK
	}
	if format == "chunked" {
		st := tracegen.NewStreamStats(1, topK)
		procs, err := memtrace.ScanChunked(f, func(proc int, refs []addr.Ref) error {
			st.EnsureProcs(proc + 1)
			for _, r := range refs {
				st.Observe(proc, r)
			}
			return nil
		})
		if err != nil {
			return "", nil, err
		}
		st.EnsureProcs(procs)
		return format, st, nil
	}
	tr, err := readAll(f, format)
	if err != nil {
		return "", nil, err
	}
	st := tracegen.NewStreamStats(tr.Procs(), topK)
	g := tr.Generator()
	for p := 0; p < tr.Procs(); p++ {
		for i := 0; i < tr.Len(p); i++ {
			st.Observe(p, g.Next(p))
		}
	}
	return format, st, nil
}

// sniff identifies the trace format and rewinds the file.
func sniff(f *os.File) (string, error) {
	var magic [6]byte
	n, err := io.ReadFull(f, magic[:])
	if err != nil && err != io.ErrUnexpectedEOF {
		return "", err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return "", err
	}
	switch {
	case n >= 6 && string(magic[:6]) == "MTRC2\n":
		return "chunked", nil
	case n >= 5 && string(magic[:5]) == "MTRC1":
		return "varint", nil
	default:
		return "text", nil
	}
}

// readAll materializes a text or varint trace.
func readAll(f *os.File, format string) (*memtrace.Trace, error) {
	br := bufio.NewReaderSize(f, 1<<20)
	if format == "varint" {
		return memtrace.ReadBinary(br)
	}
	return memtrace.ReadText(br)
}

func runConvert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	var (
		format   = fs.String("format", "chunked", "output format: text, varint, or chunked")
		chunkCap = fs.Int("chunk", 0, "references per chunk for -format chunked (0 = default)")
	)
	// Accept positional in/out before or after flags.
	var pos []string
	rest := args
	for len(rest) > 0 {
		if rest[0] != "" && rest[0][0] != '-' {
			pos = append(pos, rest[0])
			rest = rest[1:]
			continue
		}
		fs.Parse(rest)
		rest = fs.Args()
	}
	if len(pos) != 2 {
		fatal(fmt.Errorf("convert needs <in> <out>"))
	}
	in, out := pos[0], pos[1]

	inF, err := os.Open(in)
	if err != nil {
		fatal(err)
	}
	defer inF.Close()
	inFormat, err := sniff(inF)
	if err != nil {
		fatal(err)
	}
	outF, err := os.Create(out)
	if err != nil {
		fatal(err)
	}

	if inFormat == "chunked" && *format == "chunked" {
		// Re-chunk streaming: neither side materializes.
		if err := rechunk(inF, outF, *chunkCap); err != nil {
			outF.Close()
			fatal(err)
		}
	} else {
		var tr *memtrace.Trace
		if inFormat == "chunked" {
			tr, err = memtrace.ReadChunked(bufio.NewReaderSize(inF, 1<<20))
		} else {
			tr, err = readAll(inF, inFormat)
		}
		if err != nil {
			outF.Close()
			fatal(err)
		}
		switch *format {
		case "text":
			err = tr.WriteText(outF)
		case "varint":
			err = tr.WriteBinary(outF)
		case "chunked":
			err = tr.WriteChunked(outF, *chunkCap)
		default:
			err = fmt.Errorf("unknown format %q (want text, varint, or chunked)", *format)
		}
		if err != nil {
			outF.Close()
			fatal(err)
		}
	}
	if err := outF.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("converted %s (%s) → %s (%s)\n", in, inFormat, out, *format)
}

// rechunk streams a chunked trace into a new chunk capacity: the stream
// header gives the processor count, then one pass re-chunks without
// materializing either side.
func rechunk(in *os.File, out io.Writer, chunkCap int) error {
	fi, err := in.Stat()
	if err != nil {
		return err
	}
	sr, err := memtrace.OpenStream(in, fi.Size())
	if err != nil {
		return err
	}
	cw, err := memtrace.NewChunkWriter(out, sr.Procs(), chunkCap)
	if err != nil {
		return err
	}
	if _, err := in.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := memtrace.ScanChunked(in, func(proc int, refs []addr.Ref) error {
		for _, r := range refs {
			if err := cw.Append(proc, r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return cw.Close()
}

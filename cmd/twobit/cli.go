// Command twobit is the command line of the two-bit directory simulator:
// one binary whose subcommands (`twobit help` lists them) regenerate the
// paper's evidence. Each subcommand reports a failure as one
// "twobit <sub>: " line on stderr and exits 2 for a command line it
// cannot use, 1 for any other failure; `twobit <sub> -h` lists its flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"twobit"
	"twobit/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// A subcommand writes its output to stdout and its notes to stderr, and
// returns its failure for run to report.
type subcommand struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) error
}

var subcommands = []subcommand{
	{"sim", "run the full-system simulator", runSim},
	{"sweep", "execute a campaign plan: a seeded, resumable parameter grid", runSweep},
	{"tables", "Tables 4-1 and 4-2, analytic or measured by simulation", runTables},
	{"repro", "regenerate the reproduction record (EXPERIMENTS_GENERATED.md)", runRepro},
	{"mcheck", "model-check a small machine, or replay a counterexample", runMcheck},
	{"trace", "list, synth, inspect or convert memory-reference traces", runTrace},
	{"obs", "render a windowed campaign, or replay one of its runs traced", runObs},
	{"lint", "run the protocol-aware static analyzers over this module", runLint},
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: twobit <subcommand> [flags]   (twobit <subcommand> -h lists its flags)")
	for _, c := range subcommands {
		fmt.Fprintf(w, "  %-7s %s\n", c.name, c.summary)
	}
}

// run is the binary: it runs the subcommand args name and returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	for _, c := range subcommands {
		if c.name == args[0] {
			return status(c.name, c.run(args[1:], stdout, stderr), stderr)
		}
	}
	if args[0] == "help" || args[0] == "-h" || args[0] == "-help" || args[0] == "--help" {
		usage(stdout)
		return 0
	}
	fmt.Fprintf(stderr, "twobit: unknown subcommand %q\n", args[0])
	usage(stderr)
	return 2
}

// usageError is a command line the subcommand cannot use: exit status 2.
type usageError struct{ error }

// status reports err, if any, as one line on stderr — "twobit <sub>: "
// once, then the fault, without the sub's own name repeated — and
// returns the exit status: 0, 2 for a usageError, else 1.
func status(sub string, err error, stderr io.Writer) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	msg := strings.TrimPrefix(err.Error(), sub+": ")
	fmt.Fprintf(stderr, "twobit %s: %s\n", sub, strings.ReplaceAll(msg, "\n", "; "))
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// flags is a subcommand's flag set. Its usage goes to stderr.
type flags struct{ *flag.FlagSet }

func newFlags(sub string, stderr io.Writer) flags {
	fs := flag.NewFlagSet("twobit "+sub, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return flags{fs}
}

// parse parses args. -h prints the flags and returns flag.ErrHelp (exit
// 0); any other fault is a usageError, reported as one line.
func (f flags) parse(args []string) error {
	out := f.Output()
	f.SetOutput(io.Discard)
	err := f.Parse(args)
	f.SetOutput(out)
	switch {
	case errors.Is(err, flag.ErrHelp):
		f.Usage()
		return err
	case err != nil:
		return usageError{err}
	}
	return nil
}

// given reports whether the command line set the flag name.
func (f flags) given(name string) (set bool) {
	f.Visit(func(fl *flag.Flag) { set = set || fl.Name == name })
	return set
}

// onlyReads refuses, naming it, the first flag set on the command line
// that mode does not read: a flag it would silently ignore.
func (f flags) onlyReads(mode string, reads ...string) (err error) {
	f.Visit(func(fl *flag.Flag) {
		if err == nil && !slices.Contains(reads, fl.Name) {
			err = usageError{fmt.Errorf("%s does not read -%s", mode, fl.Name)}
		}
	})
	return err
}

// readPlan reads the campaign plan at path ('-' for stdin) and names its
// result store: store if given, else <plan name>.jsonl.
func readPlan(path, store string) (*sweep.Plan, string, error) {
	if path == "" {
		return nil, "", usageError{errors.New("no -plan given (twobit sweep -example prints the format)")}
	}
	plan, err := sweep.ReadPlanFile(path)
	if err != nil {
		return nil, "", err
	}
	if store == "" {
		store = plan.Name + ".jsonl"
	}
	return plan, store, nil
}

// writeFile creates path and fills it through write, leaving no file
// behind if either fails.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// gen is the paper's §4.2 merged stream: shared-private references with
// sharing probability q and shared-write probability w.
func gen(procs int, q, w float64, seed uint64) twobit.Generator {
	return twobit.NewSharedPrivateWorkload(twobit.SharedPrivateConfig{
		Procs: procs, SharedBlocks: 16, Q: q, W: w,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 64, ColdBlocks: 512, Seed: seed,
	})
}

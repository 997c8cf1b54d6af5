package main

import (
	"fmt"
	"io"
	"os"

	"twobit/internal/lint"
)

// runLint is twobit lint: it runs the protocol-aware static analyzers of
// internal/lint over the module containing the working directory,
//
//	twobit lint ./...
//
// printing one line per finding (path:line:col: [analyzer] message); any
// finding is a failure. The package patterns exist for symmetry with the
// go tool: the analyzers are whole-module by design, since both the
// handler-completeness and determinism properties are global.
func runLint(args []string, stdout, stderr io.Writer) error {
	f := newFlags("lint", stderr)
	verbose := f.Bool("v", false, "print a summary even when clean")
	if err := f.parse(args); err != nil {
		return err
	}
	dir, err := os.Getwd()
	if err != nil {
		return err
	}
	diags, err := lint.Run(lint.Config{Dir: dir})
	if err != nil {
		return err
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		return fmt.Errorf("%d findings", len(diags))
	}
	if *verbose {
		fmt.Fprintln(stdout, "lint: clean")
	}
	return nil
}

package main

import (
	"bytes"
	"testing"
)

// TestTablesErrors: tables checks its whole command line before it
// prints anything — an unknown table or an empty campaign after -cost,
// or a flag the chosen view does not read, exits 2 with one line on
// stderr and nothing on stdout.
func TestTablesErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // all of stderr, without its newline
	}{
		{"unknown table", []string{"-table", "4.3"}, `twobit tables: unknown table "4.3" (want 4.1, 4.2 or all)`},
		{"unknown table after -cost", []string{"-cost", "-table", "9"}, `twobit tables: unknown table "9" (want 4.1, 4.2 or all)`},
		{"latency without -sim", []string{"-latency"}, "twobit tables: tables without -sim does not read -latency"},
		{"workers without -sim", []string{"-viability", "-workers", "4"}, "twobit tables: tables without -sim does not read -workers"},
		{"compare with -sim", []string{"-sim", "-compare"}, "twobit tables: -sim does not read -compare"},
		{"no references after -cost", []string{"-cost", "-sim", "-refs", "0"}, "twobit tables: -refs must be ≥ 1, got 0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"tables"}, tc.args...), &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
		if got := stderr.String(); got != tc.want+"\n" {
			t.Errorf("%s:\n got stderr %q\nwant %q", tc.name, got, tc.want+"\n")
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote %d bytes to stdout", tc.name, stdout.Len())
		}
	}
}

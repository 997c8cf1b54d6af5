package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestReportIsTheCommittedRecord: the report equals
// EXPERIMENTS_GENERATED.md byte for byte, so the committed record cannot
// drift from the code that regenerates it.
func TestReportIsTheCommittedRecord(t *testing.T) {
	want, err := os.ReadFile("../../EXPERIMENTS_GENERATED.md")
	if err != nil {
		t.Fatal(err)
	}
	var got, stderr bytes.Buffer
	if code := run([]string{"repro"}, &got, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("report differs from EXPERIMENTS_GENERATED.md at line %d (regenerate with go run ./cmd/twobit repro > EXPERIMENTS_GENERATED.md):\n got  %q\n want %q", i+1, gl, wl)
		}
	}
}

package main

import (
	"bytes"
	"os"
	"testing"
)

// TestLintOutsideModule: lint in a directory outside any module cannot
// load one; that is a failure (exit 1) named in one line, with nothing on
// stdout.
func TestLintOutsideModule(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	var stdout, stderr bytes.Buffer
	if code := run([]string{"lint", "./..."}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if want := "twobit lint: no go.mod found above " + dir + "\n"; stderr.String() != want {
		t.Errorf("stderr %q, want %q", stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Errorf("wrote %q to stdout", stdout.String())
	}
}

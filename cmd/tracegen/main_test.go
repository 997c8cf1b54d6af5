package main

import (
	"errors"
	"fmt"
	"testing"
)

// TestInspectArgs: inspect takes its file before or after the flags, and
// -top must lie in 0..MaxTopK — a negative value or one past the cap is
// a named error, never a sketch sized from it; an unknown flag is a usage
// error, which exits 2.
func TestInspectArgs(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		top     int
		json    bool
		wantErr string
	}{
		{[]string{"t.mtrc2"}, 8, false, ""},
		{[]string{"t.mtrc2", "-top", "4", "-json"}, 4, true, ""},
		{[]string{"-top", "0", "t.mtrc2"}, 0, false, ""},
		{[]string{"-top", "4096", "t.mtrc2"}, 4096, false, ""},
		{[]string{"t.mtrc2", "-top", "-1"}, 0, false, "inspect -top must be in 0..4096, got -1"},
		{[]string{"-top", "4097", "t.mtrc2"}, 0, false, "inspect -top must be in 0..4096, got 4097"},
		{[]string{"-top", "3"}, 0, false, "inspect needs exactly one trace file"},
	} {
		path, top, jsonOut, err := inspectArgs(tc.args)
		if tc.wantErr != "" {
			if got := fmt.Sprint(err); got != tc.wantErr {
				t.Errorf("%q: error %v, want %q", tc.args, err, tc.wantErr)
			}
			continue
		}
		if err != nil || path != "t.mtrc2" || top != tc.top || jsonOut != tc.json {
			t.Errorf("%q: (%q, %d, %t, %v), want (t.mtrc2, %d, %t, nil)", tc.args, path, top, jsonOut, err, tc.top, tc.json)
		}
	}
	if _, _, _, err := inspectArgs([]string{"-frobnicate", "t.mtrc2"}); !errors.As(err, new(usageError)) {
		t.Errorf("unknown flag: error %v, want a usage error", err)
	}
}

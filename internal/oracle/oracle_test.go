package oracle

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("panic = %v, want one naming %q", r, want)
		}
	}()
	f()
}

// The commit table's rows are two 32-bit fields: a space with blocks
// beyond 2^32 and a 2^32nd commit in one run are named panics, not a
// silently truncated row.
func TestOracleRowLimits(t *testing.T) {
	mustPanic(t, "oracle: 4294967297 blocks beyond the commit table's 32-bit block field", func() { New(1<<32 + 1) })
	o := New(16)
	o.Commit(3, 1)
	o.seq = math.MaxUint32 - 1
	o.Commit(4, 2)
	mustPanic(t, "oracle: commit of version 3 for blk#5 beyond the commit table's 2^32 commits per run", func() { o.Commit(5, 3) })
	if s, ok := o.seqOf(4, 2); !ok || s != math.MaxUint32 {
		t.Fatalf("the last commit that fits: seq %d, ok %v", s, ok)
	}
	if o.Latest(5) != 0 {
		t.Fatalf("rejected commit left a trace: latest %d", o.Latest(5))
	}
}

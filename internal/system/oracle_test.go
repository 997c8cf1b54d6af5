package system

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"twobit/internal/addr"
	"twobit/internal/oracle"
	"twobit/internal/rng"
	"twobit/internal/sim"
)

// These tests hold oracle.Oracle to its contract through its exported
// calls, the ones the machine makes on every reference;
// TestOracleRowLimits, which reaches into its rows, lives beside it.

func TestOracleCommitAndLatest(t *testing.T) {
	o := oracle.New(16)
	if o.Latest(5) != 0 || o.Commits() != 0 {
		t.Fatal("fresh oracle not empty")
	}
	o.Commit(5, 10)
	o.Commit(5, 11)
	o.Commit(6, 12)
	if o.Latest(5) != 11 || o.Latest(6) != 12 || o.Commits() != 3 {
		t.Fatalf("latest/commits wrong: %d %d %d", o.Latest(5), o.Latest(6), o.Commits())
	}
}

func TestOracleDoubleCommitPanics(t *testing.T) {
	o := oracle.New(16)
	o.Commit(1, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("double commit did not panic")
		}
	}()
	o.Commit(1, 7)
}

func TestOracleUncommittedLoadRejected(t *testing.T) {
	o := oracle.New(16)
	err := o.CheckLoad(0, 1, 0, 99, false)
	if err == nil || !strings.Contains(err.Error(), "uncommitted") {
		t.Fatalf("err = %v", err)
	}
}

func TestOracleInitialVersionLegal(t *testing.T) {
	o := oracle.New(16)
	if err := o.CheckLoad(0, 1, 0, 0, true); err != nil {
		t.Fatalf("reading the initial version flagged: %v", err)
	}
}

func TestOracleStrictStaleness(t *testing.T) {
	o := oracle.New(16)
	o.Commit(1, 10) // proc 9 wrote v10
	// A load issued after the commit (issueLatest=10) observing v0 is a
	// strict violation but passes the plain coherence check for a proc
	// that never observed anything newer.
	if err := o.CheckLoad(0, 1, 10, 0, false); err != nil {
		t.Fatalf("coherence check flagged a legal (non-strict) stale read: %v", err)
	}
	o2 := oracle.New(16)
	o2.Commit(1, 10)
	err := o2.CheckLoad(0, 1, 10, 0, true)
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("strict check missed the stale read: %v", err)
	}
}

func TestOraclePerProcessorMonotonicity(t *testing.T) {
	o := oracle.New(16)
	o.Commit(1, 10)
	o.Commit(1, 11)
	if err := o.CheckLoad(0, 1, 11, 11, false); err != nil {
		t.Fatal(err)
	}
	// Proc 0 has seen v11; going back to v10 is a coherence violation.
	err := o.CheckLoad(0, 1, 11, 10, false)
	if err == nil || !strings.Contains(err.Error(), "coherence violation") {
		t.Fatalf("monotonicity not enforced: %v", err)
	}
	// Proc 1 never saw v11, so v10 is legal for it (non-strict).
	if err := o.CheckLoad(1, 1, 11, 10, false); err != nil {
		t.Fatalf("independent processor wrongly coupled: %v", err)
	}
}

func TestOracleOwnWriteVisibility(t *testing.T) {
	o := oracle.New(16)
	o.Commit(2, 5)
	if err := o.NoteWrite(3, 2, 5); err != nil {
		t.Fatal(err)
	}
	// Proc 3 must not subsequently observe anything older than its write.
	err := o.CheckLoad(3, 2, 5, 0, false)
	if err == nil {
		t.Fatal("read older than own write accepted")
	}
}

func TestOracleNoteWriteWithoutCommit(t *testing.T) {
	o := oracle.New(16)
	if err := o.NoteWrite(0, 1, 42); err == nil {
		t.Fatal("uncommitted store completion accepted")
	}
}

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

// Version 0 is a block's initial contents, never a store's version. The
// map oracle recorded such a commit and then ignored it (seqOf
// short-circuits v=0); it is a programming error and says so.
func TestOracleCommitZeroPanics(t *testing.T) {
	o := oracle.New(16)
	mustPanic(t, "oracle: version 0 committed for blk#3", func() { o.Commit(3, 0) })
	if o.Commits() != 0 || o.Latest(3) != 0 {
		t.Fatalf("rejected commit left a trace: commits=%d latest=%d", o.Commits(), o.Latest(3))
	}
}

// A block outside the space the oracle was sized for is a named panic
// on Commit and reads as never written everywhere else — never an
// index-out-of-range.
func TestOracleOutOfSpace(t *testing.T) {
	o := oracle.New(4)
	mustPanic(t, "oracle: commit for blk#4 beyond space of 4 blocks", func() { o.Commit(4, 1) })
	o.Reset(2) // a pooled oracle shrinks with its machine
	mustPanic(t, "oracle: commit for blk#3 beyond space of 2 blocks", func() { o.Commit(3, 1) })
	if v := o.Latest(1 << 40); v != 0 {
		t.Fatalf("Latest beyond the space = %d, want 0", v)
	}
	if err := o.CheckLoad(0, 1<<40, 0, 0, true); err != nil {
		t.Fatalf("initial contents of an out-of-space block flagged: %v", err)
	}
	if err := o.CheckLoad(0, 1<<40, 0, 9, false); err == nil || !strings.Contains(err.Error(), "uncommitted") {
		t.Fatalf("err = %v", err)
	}
}

// mapOracle is the hash-table oracle the simulator shipped until the
// commit table became version-indexed, kept verbatim (names aside) as
// the reference the differential test below holds Oracle to — the way
// sim's TestKernelOrderOracle kept container/heap.
type mapOracle struct {
	seq      uint64
	seqs     map[refBlockVersion]uint64 // (block, version) → commit sequence
	latest   map[addr.Block]uint64
	lastSeen map[refProcBlock]uint64 // per (proc, block): last observed commit seq
}

type refBlockVersion struct {
	block   addr.Block
	version uint64
}

type refProcBlock struct {
	proc  int
	block addr.Block
}

func newMapOracle() *mapOracle {
	return &mapOracle{
		seqs:     make(map[refBlockVersion]uint64),
		latest:   make(map[addr.Block]uint64),
		lastSeen: make(map[refProcBlock]uint64),
	}
}

func (o *mapOracle) Reset() {
	o.seq = 0
	clear(o.seqs)
	clear(o.latest)
	clear(o.lastSeen)
}

func (o *mapOracle) Commit(b addr.Block, v uint64) {
	o.seq++
	k := refBlockVersion{b, v}
	if _, dup := o.seqs[k]; dup {
		panic(fmt.Sprintf("oracle: version %d committed twice for %v", v, b))
	}
	o.seqs[k] = o.seq
	o.latest[b] = v
}

func (o *mapOracle) Latest(b addr.Block) uint64 { return o.latest[b] }

func (o *mapOracle) Commits() uint64 { return o.seq }

func (o *mapOracle) seqOf(b addr.Block, v uint64) (uint64, bool) {
	if v == 0 {
		return 0, true
	}
	s, ok := o.seqs[refBlockVersion{b, v}]
	return s, ok
}

func (o *mapOracle) NoteWrite(proc int, b addr.Block, v uint64) error {
	s, ok := o.seqOf(b, v)
	if !ok {
		return fmt.Errorf("oracle: proc %d's store of version %d to %v completed without committing", proc, v, b)
	}
	key := refProcBlock{proc, b}
	if s > o.lastSeen[key] {
		o.lastSeen[key] = s
	}
	return nil
}

func (o *mapOracle) CheckLoad(proc int, b addr.Block, issueLatest, got uint64, strict bool) error {
	gs, ok := o.seqOf(b, got)
	if !ok {
		return fmt.Errorf("oracle: load of %v observed uncommitted version %d", b, got)
	}
	key := refProcBlock{proc, b}
	if prev := o.lastSeen[key]; gs < prev {
		return fmt.Errorf("oracle: coherence violation on %v: proc %d observed version %d (commit #%d) after already observing commit #%d",
			b, proc, got, gs, prev)
	}
	o.lastSeen[key] = gs
	if strict {
		is, ok := o.seqOf(b, issueLatest)
		if !ok {
			return fmt.Errorf("oracle: internal error: issue version %d unknown for %v", issueLatest, b)
		}
		if gs < is {
			return fmt.Errorf("oracle: stale load of %v: observed version %d (commit #%d) but version %d (commit #%d) was already current at issue",
				b, got, gs, issueLatest, is)
		}
	}
	return nil
}

// TestOracleDifferential drives the map oracle, a fresh Oracle and a
// pooled Oracle (Reset from whatever block count its previous sequence
// had) through the same seeded random operation sequences — in-order,
// late and never-arriving commits; own-write notes and strict and
// non-strict loads of current, stale, uncommitted, wrong-block,
// never-written (v=0), beyond-the-table and out-of-space cases; three
// processors plus two DMA ids; a Reset to a different block count in
// the middle — and demands the same verdict, word for word, at every
// step.
func TestOracleDifferential(t *testing.T) {
	const sequences, procs = 10_000, 5
	pooled := oracle.New(0)
	for s := 0; s < sequences; s++ {
		r := rng.New(uint64(s), 0x0c1e)
		ref := newMapOracle()
		ops := 40 + r.Intn(120)
		resetAt := r.Intn(ops)
		var fresh *oracle.Oracle
		var blocks int
		var next uint64        // versions issued so far, as Machine.nextVersion
		var pending []uint64   // issued, not (yet) committed
		var committed []uint64 // committed, for any block
		restart := func() {
			blocks = 1 + r.Intn(48)
			ref.Reset()
			fresh = oracle.New(blocks)
			pooled.Reset(blocks)
			next, pending, committed = 0, pending[:0], committed[:0]
		}
		restart()
		block := func() addr.Block {
			if r.Bool(0.03) {
				return addr.Block(blocks + r.Intn(4)) // outside the space
			}
			return addr.Block(r.Intn(blocks))
		}
		version := func(b addr.Block) uint64 {
			switch k := r.Intn(10); {
			case k < 4:
				return ref.Latest(b)
			case k < 6 && len(committed) > 0: // stale, or another block's
				return committed[r.Intn(len(committed))]
			case k < 7 && len(pending) > 0:
				return pending[r.Intn(len(pending))]
			case k < 8:
				return next + 1 + uint64(r.Intn(3)) // not issued yet
			}
			return 0
		}
		same := func(step int, want, got1, got2 error, call string, args ...any) {
			t.Helper()
			if fmt.Sprint(want) != fmt.Sprint(got1) || fmt.Sprint(want) != fmt.Sprint(got2) {
				t.Fatalf("seq %d step %d %s:\n map:    %v\n fresh:  %v\n pooled: %v", s, step, fmt.Sprintf(call, args...), want, got1, got2)
			}
		}
		for i := 0; i < ops; i++ {
			if i == resetAt {
				restart()
			}
			b, proc := block(), r.Intn(procs)
			switch k := r.Intn(10); {
			case k < 3: // a store: issue a version, commit it now, later or never
				next++
				pending = append(pending, next)
				if r.Bool(0.3) {
					break
				}
				j := r.Intn(len(pending))
				v := pending[j]
				pending = append(pending[:j], pending[j+1:]...)
				committed = append(committed, v)
				b = addr.Block(r.Intn(blocks))
				ref.Commit(b, v)
				fresh.Commit(b, v)
				pooled.Commit(b, v)
			case k < 5:
				v := version(b)
				same(i, ref.NoteWrite(proc, b, v), fresh.NoteWrite(proc, b, v), pooled.NoteWrite(proc, b, v),
					"NoteWrite(%d, %v, %d)", proc, b, v)
			default:
				issue, got, strict := ref.Latest(b), version(b), r.Bool(0.5)
				if r.Bool(0.1) {
					issue = version(b)
				}
				same(i, ref.CheckLoad(proc, b, issue, got, strict),
					fresh.CheckLoad(proc, b, issue, got, strict),
					pooled.CheckLoad(proc, b, issue, got, strict),
					"CheckLoad(%d, %v, %d, %d, %v)", proc, b, issue, got, strict)
			}
			if ref.Commits() != fresh.Commits() || ref.Commits() != pooled.Commits() {
				t.Fatalf("seq %d step %d: Commits map/fresh/pooled = %d/%d/%d", s, i, ref.Commits(), fresh.Commits(), pooled.Commits())
			}
			if i == resetAt-1 || i == ops-1 {
				for b := addr.Block(0); int(b) < blocks+4; b++ {
					if ref.Latest(b) != fresh.Latest(b) || ref.Latest(b) != pooled.Latest(b) {
						t.Fatalf("seq %d step %d: Latest(%v) map/fresh/pooled = %d/%d/%d", s, i, b, ref.Latest(b), fresh.Latest(b), pooled.Latest(b))
					}
				}
			}
		}
	}
}

// TestZeroAllocOracle: a Reset oracle replaying the pass it was warmed
// with — 4,096 references, a fifth of them stores — allocates nothing.
func TestZeroAllocOracle(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const refs, procs, blocks = 4096, 8, 512
	o, r := oracle.New(blocks), rng.New(0, 0)
	pass := func() {
		o.Reset(blocks)
		r.Reseed(7, 0x0c1e)
		var v uint64
		for i := 0; i < refs; i++ {
			b, proc := addr.Block(r.Intn(blocks)), i%procs
			var err error
			if r.Bool(0.2) {
				v++
				o.Commit(b, v)
				err = o.NoteWrite(proc, b, v)
			} else {
				err = o.CheckLoad(proc, b, o.Latest(b), o.Latest(b), true)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	pass() // grow the commit table and lastSeen to their high-water marks
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Errorf("a warmed oracle allocates %v per %d-reference pass, want 0", allocs, refs)
	}
}

// TestOracleBytesPerVersion: a fresh oracle committing 100k versions, in
// order or shuffled, allocates at most two 8-byte rows per version plus
// 64 KB: its commit table grows in segments and never re-copies a row.
func TestOracleBytesPerVersion(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const versions, blocks = 100_000, 1024
	inOrder := make([]uint64, versions)
	for i := range inOrder {
		inOrder[i] = uint64(i + 1)
	}
	shuffled := make([]uint64, versions)
	for i, j := range rng.New(38, 0x0c1e).Perm(versions) {
		shuffled[i] = inOrder[j]
	}
	for _, c := range []struct {
		name  string
		order []uint64
	}{{"in order", inOrder}, {"shuffled", shuffled}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		o := oracle.New(blocks)
		for _, v := range c.order {
			o.Commit(addr.Block(v%blocks), v)
		}
		runtime.ReadMemStats(&after)
		if o.Commits() != versions {
			t.Fatalf("%s: %d commits, want %d", c.name, o.Commits(), versions)
		}
		got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*8*versions+64<<10)
		if got > limit {
			t.Errorf("%s: %d versions allocated %d B (%.1f B per version), want ≤ %d", c.name, versions, got, float64(got)/versions, limit)
		}
		t.Logf("%s: %.1f B per version", c.name, float64(got)/versions)
	}
}

package system

import (
	"fmt"
	"slices"

	"twobit/internal/addr"
)

// Oracle checks the paper's coherence definition — "a read access to any
// block always returns the most recently written value of that block" —
// at two strictness levels.
//
// The base check is *coherence*: every store produces a globally unique
// version, the protocols call Commit at the instant a store's value
// becomes the block's current value (so commits define a per-block total
// write order), every load must observe a committed version, and each
// processor must observe a block's versions in non-decreasing commit
// order — never an older value after a newer one, and never older than
// its own last write. This is precisely what the 1984 protocol
// guarantees.
//
// The strict check adds *linearizability*: a load must observe the version
// that was current at its issue, or one committed later. The protocol
// attains this only when invalidations and grants arrive in step — the
// controller sends MGRANTED as soon as the BROADINV broadcast leaves, so
// under a network with variable per-message delay (the Omega model) a
// remote cache may briefly read its stale copy after the writer proceeded.
// The machine therefore enables the strict check only on uniform-latency
// networks (crossbar, bus). See DESIGN.md §6.
//
// The oracle rides on every reference, so its tables are indexed, not
// hashed. The contract: versions are the dense integers the machine issues
// (Machine.nextVersion++) and blocks lie in the [0, blocks) it was sized for.
type Oracle struct {
	seq     uint64
	commits []commit // indexed by version; seq 0 = not committed
	latest  []uint64 // indexed by block; sized by Reset, never grown
	// lastSeen: procBlock(proc, block) → last commit seq proc observed.
	// Sparse on purpose: a dense procs × blocks table costs a large space
	// (replay-kv) more in allocation and RSS than the map costs in time.
	lastSeen map[uint64]uint64
}

// commit is a commit-table row: v is committed only for the block it names.
type commit struct {
	block addr.Block
	seq   uint64
}

func procBlock(proc int, b addr.Block) uint64 { return uint64(proc)<<48 | uint64(b) }

// NewOracle returns an empty oracle over blocks [0, blocks). Version 0 is a
// block's initial memory contents, implicitly committed with sequence 0.
func NewOracle(blocks int) *Oracle {
	o := &Oracle{lastSeen: make(map[uint64]uint64)}
	o.Reset(blocks)
	return o
}

// Reset empties the oracle for a new run over blocks [0, blocks), keeping
// every table's capacity so a worker reusing one oracle stops paying per-run
// growth. A Reset oracle is indistinguishable from a fresh one of that size.
func (o *Oracle) Reset(blocks int) {
	o.seq = 0
	o.commits = o.commits[:0] // Commit regrows it by appending zeroed rows
	o.latest = slices.Grow(o.latest[:0], blocks)[:blocks]
	clear(o.latest)
	clear(o.lastSeen)
}

// Commit records that version v became current for block b. It panics on v = 0
// (the initial contents, never a store's), a repeated v, or a block out of space.
func (o *Oracle) Commit(b addr.Block, v uint64) {
	if v == 0 {
		panic(fmt.Sprintf("oracle: version 0 committed for %v", b))
	}
	if uint64(b) >= uint64(len(o.latest)) {
		panic(fmt.Sprintf("oracle: commit for %v beyond space of %d blocks", b, len(o.latest)))
	}
	if v >= uint64(len(o.commits)) {
		o.commits = append(o.commits, make([]commit, v+1-uint64(len(o.commits)))...)
	} else if o.commits[v].seq != 0 {
		panic(fmt.Sprintf("oracle: version %d committed twice for %v", v, b))
	}
	o.seq++
	o.commits[v] = commit{b, o.seq}
	o.latest[b] = v
}

// Latest returns b's last committed version; 0 if none or b is out of space.
func (o *Oracle) Latest(b addr.Block) uint64 {
	if uint64(b) >= uint64(len(o.latest)) {
		return 0
	}
	return o.latest[b]
}

// Commits returns the total number of commits observed.
func (o *Oracle) Commits() uint64 { return o.seq }

func (o *Oracle) seqOf(b addr.Block, v uint64) (uint64, bool) {
	if v == 0 || v >= uint64(len(o.commits)) {
		return 0, v == 0
	}
	c := o.commits[v]
	return c.seq, c.seq != 0 && c.block == b
}

// NoteWrite records, at a store's completion, that proc has observed its
// own write (subsequent loads must not see anything older).
func (o *Oracle) NoteWrite(proc int, b addr.Block, v uint64) error {
	s, ok := o.seqOf(b, v)
	if !ok {
		return fmt.Errorf("oracle: proc %d's store of version %d to %v completed without committing", proc, v, b)
	}
	key := procBlock(proc, b)
	if s > o.lastSeen[key] {
		o.lastSeen[key] = s
	}
	return nil
}

// CheckLoad validates a completed load of block b by proc that observed
// version got. issueLatest is Latest(b) snapshotted at issue; it is
// consulted only when strict is true.
func (o *Oracle) CheckLoad(proc int, b addr.Block, issueLatest, got uint64, strict bool) error {
	gs, ok := o.seqOf(b, got)
	if !ok {
		return fmt.Errorf("oracle: load of %v observed uncommitted version %d", b, got)
	}
	key := procBlock(proc, b)
	if prev := o.lastSeen[key]; gs < prev {
		return fmt.Errorf("oracle: coherence violation on %v: proc %d observed version %d (commit #%d) after already observing commit #%d",
			b, proc, got, gs, prev)
	} else if gs > prev { // a hit-dominated stream almost never advances
		o.lastSeen[key] = gs
	}
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

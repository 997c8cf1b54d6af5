package core

import (
	"fmt"
	"math/bits"

	"twobit/internal/addr"
	"twobit/internal/directory"
	"twobit/internal/proto"
)

// Policy is everything the directory protocols differ on. The paper's own
// framing (§2.4 → §3) is that the two-bit scheme is the Censier–Feautrier
// / Tang controller with less knowledge: the same REQUEST / MREQUEST /
// EJECT / put transactions, differing in whether the directory can name a
// block's holders. The zero Policy is the paper's two-bit scheme;
// FullMap and Duplication construct the baselines.
type Policy struct {
	// Holders builds the exact holder store for a module of blocks blocks
	// serving caches caches. With one, every command is directed (INV,
	// PURGE), an MREQUEST is judged against the sender's presence bit when
	// it is serviced, and its grant is final. nil selects the two-bit map:
	// holders are unknown (broadcast, unless the §4.4 translation buffer
	// remembers them), so a stale MREQUEST is denied on arrival and a
	// grant takes effect only on the cache's MACK.
	Holders func(blocks, caches int) HolderStore
	// Exclusive enables the Yen–Fu local state (§2.4.3): a read miss on an
	// uncached block is granted exclusively, and the directory
	// pessimistically marks the block modified.
	Exclusive bool
	// Central models Tang's single central controller (§2.4.1): every
	// command searches all n duplicated directories (service time
	// CtrlService × (1 + n/8)), commands are serviced one at a time, and
	// the machine has exactly one module.
	Central bool
}

// FullMap is the baseline the paper compares against: the full
// distributed map of Censier & Feautrier (§2.4.2), in which each memory
// block carries an n+1-bit tag — one presence bit per cache plus a
// modified bit. Because the directory knows exactly which caches hold
// copies, every coherence command is directed (PURGE, INV); no broadcasts
// are ever needed.
//
// With exclusive set the controller additionally grants the Yen–Fu local
// state (§2.4.3): a read miss on an uncached block returns the copy
// exclusively, and the cache may later modify it without consulting the
// global table. The directory pessimistically marks such blocks modified,
// so a future miss always queries the (possibly still clean) owner — the
// standard resolution of the synchronization problems [10] leaves open.
func FullMap(exclusive bool) Policy {
	return Policy{
		Holders:   func(blocks, caches int) HolderStore { return directory.NewFullMap(blocks, caches) },
		Exclusive: exclusive,
	}
}

// Duplication is Tang's scheme (§2.4.1): a single central memory
// controller keeps a duplicate copy of every cache's directory and
// consults all of them to determine a block's global state. Knowledge is
// exact, so all commands are directed like the full map's; the cost is the
// centralization the paper criticizes — one controller serves every block,
// searches n directories per command, and (per the published design's
// simplicity assumptions) services one command at a time.
func Duplication() Policy {
	return Policy{
		Holders: func(blocks, caches int) HolderStore { return directory.NewDupTagStore(blocks, caches) },
		Central: true,
	}
}

// HolderStore is an exact directory: per block, the set of holding caches
// and a modified bit. directory.FullMap and directory.DupTagStore
// implement it.
type HolderStore interface {
	HolderMask(block int) uint64
	Modified(block int) bool
	SetPresent(block, cache int, present bool)
	SetModified(block int, mod bool)
	Clear(block int)
	Reset()
}

// dir is a module's directory as the transaction engine sees it: the
// two-bit projection of a block, who may hold it, and the update each
// protocol event makes. twoBitDir and exactDir implement it.
type dir interface {
	state(a addr.Block) directory.State
	// entry returns the exact holder set and modified bit, without side
	// effects, for snapshots and invariants; zero when holders are unknown.
	entry(a addr.Block) (holders uint64, modified bool)
	// holders names the caches that may hold a when the directory can:
	// known selects directed sends over a broadcast.
	holders(a addr.Block) (mask uint64, known bool)
	// mayUpgrade reports whether cache k's MREQUEST can be granted.
	mayUpgrade(a addr.Block, k int) bool

	// filled: k's read miss was served from memory; from is the state the
	// miss found.
	filled(a addr.Block, k int, from directory.State, exclusive bool)
	// cleaned: owner's modified copy was written back and stays cached
	// clean; the reader k gains a copy too (k < 0: an I/O read, nobody).
	cleaned(a addr.Block, owner, k int)
	// owned: k now holds the only copy, modified.
	owned(a addr.Block, k int)
	// ejected: k's clean EJECT was serviced.
	ejected(a addr.Block, k int)
	// wroteBack: k's EJECT("write") was serviced and its data stored.
	wroteBack(a addr.Block, k int)
	// dropped: the caches in mask lost their copies — directed INVs went
	// out, or an eviction's put was consumed as a query answer.
	dropped(a addr.Block, mask uint64)
	// cleared: no cache holds a any more.
	cleared(a addr.Block)
	// distrust forgets remembered holders that the protocol just
	// contradicted.
	distrust(a addr.Block)
	// flat returns the directory's per-block state by local block index
	// (see Controller.Flat).
	flat() Flat

	reset(tbSize int)
}

func bit(k int) uint64 {
	if k < 0 {
		return 0
	}
	return 1 << uint(k)
}

// twoBitDir is the paper's directory (§3.1): two bits per block, plus the
// optional §4.4 translation buffer — a small LRU memory of exact owner
// sets that converts broadcasts into directed sends on a hit. Entries are
// only created when the owner set is exactly known.
type twoBitDir struct {
	bits  *directory.TwoBitMap
	tb    *directory.TranslationBuffer // nil when disabled
	space addr.Space
	stats *proto.CtrlStats
}

func (d *twoBitDir) reset(tbSize int) {
	d.bits.Reset()
	if d.tb != nil {
		d.tb.Reset(tbSize)
	}
}

func (d *twoBitDir) state(a addr.Block) directory.State { return d.bits.Get(d.space.LocalIndex(a)) }

func (d *twoBitDir) set(a addr.Block, s directory.State) { d.bits.Set(d.space.LocalIndex(a), s) }

func (d *twoBitDir) entry(addr.Block) (uint64, bool) { return 0, false }

func (d *twoBitDir) flat() Flat { return Flat{States: d.bits} }

func (d *twoBitDir) lookup(a addr.Block) ([]int, bool) {
	if d.tb == nil {
		return nil, false
	}
	owners, ok := d.tb.Lookup(a)
	if ok {
		d.stats.TBHits.Inc()
	} else {
		d.stats.TBMisses.Inc()
	}
	return owners, ok
}

func (d *twoBitDir) holders(a addr.Block) (uint64, bool) {
	owners, ok := d.lookup(a)
	if !ok {
		return 0, false
	}
	if len(owners) == 0 && d.state(a) == directory.PresentM {
		// An empty owner set contradicts PresentM; distrust the buffer.
		d.tb.Drop(a)
		return 0, false
	}
	var mask uint64
	for _, o := range owners {
		mask |= bit(o)
	}
	return mask, true
}

// mayUpgrade trusts the state: a clean copy exists somewhere, and the
// sender claims it is theirs. The MACK confirms the claim.
func (d *twoBitDir) mayUpgrade(a addr.Block, _ int) bool {
	st := d.state(a)
	return st == directory.Present1 || st == directory.PresentStar
}

func (d *twoBitDir) record(a addr.Block, owners ...int) {
	if d.tb != nil {
		d.tb.Record(a, owners)
	}
}

func (d *twoBitDir) filled(a addr.Block, k int, from directory.State, _ bool) {
	if from == directory.Absent {
		d.set(a, directory.Present1)
		d.record(a, k)
		return
	}
	d.set(a, directory.PresentStar)
	if d.tb != nil {
		d.tb.AddOwner(a, k)
	}
}

func (d *twoBitDir) cleaned(a addr.Block, owner, k int) {
	if k < 0 {
		d.set(a, directory.Present1)
		d.record(a, owner)
		return
	}
	d.set(a, directory.PresentStar)
	d.record(a, owner, k)
}

func (d *twoBitDir) owned(a addr.Block, k int) {
	d.set(a, directory.PresentM)
	d.record(a, k)
}

// ejected is §3.2.1 case 2: a clean ejection can reclaim the block toward
// Absent.
//
// The paper's Present1 → Absent transition assumes the arriving EJECT
// describes the copy Present1 counts. Under a network that only preserves
// per-pair FIFO order that assumption fails: an EJECT can be overtaken by
// another cache's commands, arriving after its copy was invalidated and
// the block re-fetched — the Present1 then counts the *new* holder's
// copy, and dropping to Absent would let the next write skip BROADINV and
// strand that live copy stale forever (found by internal/mcheck). The
// two-bit state cannot identify the holder, so:
//
//   - with an exact §4.4 translation-buffer entry, the EJECT is validated
//     against the true owner set: stale ejects are dropped, and the last
//     owner leaving reclaims Absent exactly as §3.2.1 intends;
//   - without one, Present1 degrades to the Present* overcount — always
//     safe, at the price of one BROADINV on the next write.
func (d *twoBitDir) ejected(a addr.Block, k int) {
	owners, exact := d.lookup(a)
	if !exact {
		if d.state(a) == directory.Present1 {
			d.set(a, directory.PresentStar)
		}
		if d.tb != nil {
			d.tb.RemoveOwner(a, k)
		}
		return
	}
	held := false
	for _, o := range owners {
		held = held || o == k
	}
	if !held {
		return // stale: k's copy was already invalidated
	}
	d.tb.RemoveOwner(a, k)
	if len(owners) == 1 && d.state(a) == directory.Present1 {
		d.set(a, directory.Absent)
		d.record(a)
	}
}

func (d *twoBitDir) wroteBack(a addr.Block, _ int) {
	if d.state(a) == directory.PresentM {
		d.set(a, directory.Absent)
	}
	d.record(a)
}

func (d *twoBitDir) dropped(addr.Block, uint64) {}

func (d *twoBitDir) cleared(a addr.Block) {
	d.set(a, directory.Absent)
	d.record(a)
}

func (d *twoBitDir) distrust(a addr.Block) {
	if d.tb != nil {
		d.tb.Drop(a)
	}
}

// exactDir is a directory that names every holder: the Censier–Feautrier
// presence vector (§2.4.2) or Tang's duplicated cache directories
// (§2.4.1), behind one HolderStore.
type exactDir struct {
	store HolderStore
	space addr.Space
}

func (d *exactDir) reset(int) { d.store.Reset() }

func (d *exactDir) entry(a addr.Block) (uint64, bool) {
	li := d.space.LocalIndex(a)
	return d.store.HolderMask(li), d.store.Modified(li)
}

func (d *exactDir) flat() Flat {
	switch s := d.store.(type) {
	case *directory.FullMap:
		return Flat{FullMap: s}
	case *directory.DupTagStore:
		return Flat{Dup: s}
	}
	panic(fmt.Sprintf("core: no flat view of %T", d.store))
}

func (d *exactDir) state(a addr.Block) directory.State {
	return directory.Project(d.entry(a))
}

func (d *exactDir) holders(a addr.Block) (uint64, bool) {
	mask, modified := d.entry(a)
	if modified && bits.OnesCount64(mask) != 1 {
		panic(fmt.Sprintf("core: modified %v has holders %b, want exactly one", a, mask))
	}
	return mask, true
}

// mayUpgrade is exact: the presence bit for k is cleared the moment an
// INV is sent, so "bit set" means no invalidation can be in flight.
func (d *exactDir) mayUpgrade(a addr.Block, k int) bool {
	mask, modified := d.entry(a)
	return mask&bit(k) != 0 && !modified
}

func (d *exactDir) filled(a addr.Block, k int, _ directory.State, exclusive bool) {
	li := d.space.LocalIndex(a)
	d.store.SetPresent(li, k, true)
	if exclusive {
		// Pessimistic m bit: the owner may modify silently (§2.4.3).
		d.store.SetModified(li, true)
	}
}

// cleaned leaves the previous owner's presence bit alone — it is already
// accurate: either the owner answered the PURGE and kept a clean copy, or
// the data arrived via its racing eviction and dropped cleared the bit.
func (d *exactDir) cleaned(a addr.Block, _, k int) {
	li := d.space.LocalIndex(a)
	d.store.SetModified(li, false)
	if k >= 0 {
		d.store.SetPresent(li, k, true)
	}
}

func (d *exactDir) owned(a addr.Block, k int) {
	li := d.space.LocalIndex(a)
	d.store.Clear(li)
	d.store.SetPresent(li, k, true)
	d.store.SetModified(li, true)
}

// ejected also clears a dangling m bit: a clean ejection by a Yen–Fu
// exclusive owner leaves the pessimistic bit behind.
func (d *exactDir) ejected(a addr.Block, k int) {
	li := d.space.LocalIndex(a)
	d.store.SetPresent(li, k, false)
	if d.store.HolderMask(li) == 0 {
		d.store.SetModified(li, false)
	}
}

func (d *exactDir) wroteBack(a addr.Block, k int) { d.ejected(a, k) }

func (d *exactDir) dropped(a addr.Block, mask uint64) {
	li := d.space.LocalIndex(a)
	for ; mask != 0; mask &= mask - 1 {
		d.store.SetPresent(li, bits.TrailingZeros64(mask), false)
	}
}

func (d *exactDir) cleared(a addr.Block) { d.store.Clear(d.space.LocalIndex(a)) }

func (d *exactDir) distrust(addr.Block) {}

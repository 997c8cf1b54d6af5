package proto

import (
	"fmt"
	"math"

	"twobit/internal/addr"
	"twobit/internal/msg"
	"twobit/internal/network"
)

// ConcurrencyMode selects between the two controller designs of §3.2.5.
type ConcurrencyMode uint8

const (
	// PerBlock lets the controller service commands for distinct blocks
	// simultaneously, serializing only commands for the same block (the
	// paper's "slightly more complex design").
	PerBlock ConcurrencyMode = iota
	// SingleCommand services one command at a time for the whole
	// controller (the paper's "too stringent" option, kept for the
	// performance ablation it invites).
	SingleCommand
)

// String names the mode.
func (m ConcurrencyMode) String() string {
	switch m {
	case PerBlock:
		return "per-block"
	case SingleCommand:
		return "single-command"
	}
	return fmt.Sprintf("ConcurrencyMode(%d)", uint8(m))
}

// Pending is a command awaiting or undergoing service.
type Pending struct {
	Src network.NodeID
	M   msg.Message
}

// StartFunc begins servicing a command. The implementation must call
// Serializer.Done(block) exactly once when the transaction completes.
type StartFunc func(p Pending)

// StashedPut is one buffered early put: who sent it and its data.
type StashedPut struct {
	Cache int
	Data  uint64
}

// BlockRec is everything a controller holds about one block it has
// business with: the serializer's busy flag and queue, and the owning
// controller's open transaction and early puts. A block with none of the
// four has no record.
type BlockRec[T any] struct {
	Txn     *T           // the owner's open transaction on the block, or nil
	Stashed []StashedPut // puts that arrived before their transaction, oldest first

	busy  bool      // a command for the block is in service
	queue []Pending // PerBlock: commands waiting behind it
}

// BlockTable holds a record of type R for each block of one memory module
// that its owner has business with, reached as §3.1 reaches the two bits,
// by index: slots has one entry per block of the module (Space.LocalIndex;
// 0 = nothing tracked, the common case) naming one of the first live
// records of recs. A record is released, by swapping it with the last live
// one, when its owner says the block is idle, and comes back as it was
// left — the owner empties it but keeps its slices' capacity for the next
// block, so a warmed table allocates nothing.
type BlockTable[R any] struct {
	space  addr.Space
	module int // whose blocks of space these are
	slots  []uint16
	recs   []*tracked[R]
	live   int
}

// tracked is a record and, while it is live, its block's Space.LocalIndex.
type tracked[R any] struct {
	rec   R
	local int
}

// NewBlockTable returns an empty table for the blocks of one module of
// space.
func NewBlockTable[R any](space addr.Space, module int) BlockTable[R] {
	return BlockTable[R]{space: space, module: module, slots: make([]uint16, space.BlocksInModule(module))}
}

// localIndex is Space.LocalIndex for a block that must be this module's
// li-th: any other would alias another block's slot or run off the table.
func (t *BlockTable[R]) localIndex(b addr.Block) int {
	li := t.space.LocalIndex(b)
	if uint64(b) >= uint64(t.space.Blocks) || addr.Block(li*t.space.Modules+t.module) != b {
		panic(fmt.Sprintf("proto: %v is not a block of module %d in a space of %d blocks over %d modules",
			b, t.module, t.space.Blocks, t.space.Modules))
	}
	return li
}

// Rec returns block b's record, or nil when nothing is tracked for it.
// The pointer is good until the record is released.
func (t *BlockTable[R]) Rec(b addr.Block) *R {
	if i := t.slots[t.localIndex(b)]; i != 0 {
		return &t.recs[i-1].rec
	}
	return nil
}

// Track returns block b's record, taking a recycled or new one if b had
// none.
func (t *BlockTable[R]) Track(b addr.Block) *R {
	li := t.localIndex(b)
	if i := t.slots[li]; i != 0 {
		return &t.recs[i-1].rec
	}
	if t.live == len(t.recs) {
		if t.live == math.MaxUint16 {
			panic(fmt.Sprintf("proto: module %d tracks more than %d blocks at once", t.module, t.live))
		}
		t.recs = append(t.recs, new(tracked[R]))
	}
	r := t.recs[t.live]
	r.local = li
	t.live++
	t.slots[li] = uint16(t.live)
	return &r.rec
}

// Release recycles block b's record, which the owner has emptied.
func (t *BlockTable[R]) Release(b addr.Block) {
	li := t.localIndex(b)
	i, last := int(t.slots[li])-1, t.live-1
	t.recs[i], t.recs[last] = t.recs[last], t.recs[i]
	t.slots[t.recs[i].local] = uint16(i + 1)
	t.slots[li] = 0
	t.live = last
}

// Len returns the number of records in use.
func (t *BlockTable[R]) Len() int { return t.live }

// ReleaseAll recycles every record, after empty has emptied it.
func (t *BlockTable[R]) ReleaseAll(empty func(*R)) {
	for _, r := range t.recs[:t.live] {
		empty(&r.rec)
		t.slots[r.local] = 0
	}
	t.live = 0
}

// Serializer is the controller's command queue: the bit-map controller of
// §3.2.5 services one request per block (or one per controller) at a time,
// queueing the rest, with the ability to delete queued entries — the
// mechanism the paper uses to resolve racing MREQUESTs.
//
// Per-block state lives in the embedded BlockTable. A record is released
// by the Done that leaves its block idle, so an owner that Tracks a block
// itself must leave the record busy, queued, with a Txn or with a put
// Stashed. T is the owner's transaction type.
type Serializer[T any] struct {
	BlockTable[BlockRec[T]]
	mode  ConcurrencyMode
	start StartFunc

	global []Pending // SingleCommand queue
	active int       // active transactions (0 or 1 in SingleCommand)

	ready       []Pending
	dispatching bool

	queued int // total queued entries, for high-water accounting
}

// NewSerializer returns a serializer in the given mode for the blocks of
// one module of space. start must be non-nil.
func NewSerializer[T any](mode ConcurrencyMode, space addr.Space, module int, start StartFunc) *Serializer[T] {
	if start == nil {
		panic("proto: nil StartFunc")
	}
	return &Serializer[T]{BlockTable: NewBlockTable[BlockRec[T]](space, module), mode: mode, start: start}
}

// Reset empties the serializer and switches it to mode, keeping the slot
// table, every record with its slices, and the global and ready queues.
// The StartFunc stays bound — it is a method value on the owning
// controller, which outlives the reset.
func (s *Serializer[T]) Reset(mode ConcurrencyMode) {
	s.mode = mode
	s.ReleaseAll(func(r *BlockRec[T]) {
		*r = BlockRec[T]{Stashed: r.Stashed[:0], queue: r.queue[:0]}
	})
	s.global = s.global[:0]
	s.active = 0
	s.ready = s.ready[:0]
	s.dispatching = false
	s.queued = 0
}

// QueuedLen returns the number of queued (not yet started) commands.
func (s *Serializer[T]) QueuedLen() int { return s.queued }

// Active reports whether a transaction is in progress for block b.
func (s *Serializer[T]) Active(b addr.Block) bool {
	if s.mode == SingleCommand {
		return s.active > 0
	}
	r := s.Rec(b)
	return r != nil && r.busy
}

// ActiveCount returns the number of in-progress transactions.
func (s *Serializer[T]) ActiveCount() int { return s.active }

// Submit offers a command for service: it starts immediately if its block
// (or the controller, in SingleCommand mode) is free, otherwise it queues.
func (s *Serializer[T]) Submit(p Pending) {
	if s.mode == SingleCommand {
		if s.active > 0 {
			s.queued++
			s.global = append(s.global, p)
		} else {
			s.admit(s.Track(p.M.Block), p)
		}
	} else if r := s.Track(p.M.Block); r.busy {
		s.queued++
		r.queue = append(r.queue, p)
	} else {
		s.admit(r, p)
	}
	s.dispatch()
}

func (s *Serializer[T]) admit(r *BlockRec[T], p Pending) {
	s.active++
	r.busy = true
	s.ready = append(s.ready, p)
}

// Done marks the transaction on block b complete and starts the next
// eligible queued command, if any.
func (s *Serializer[T]) Done(b addr.Block) {
	r := s.Rec(b)
	if r == nil || !r.busy {
		panic(fmt.Sprintf("proto: Done(%v) without active transaction", b))
	}
	s.active--
	r.busy = false
	// Queues are popped by moving the rest down: re-slicing the head away
	// would walk the capacity off the array and reallocate on every append.
	if s.mode == SingleCommand {
		if len(s.global) > 0 {
			p := s.global[0]
			s.global = s.global[:copy(s.global, s.global[1:])]
			s.queued--
			s.admit(s.Track(p.M.Block), p)
		}
	} else if len(r.queue) > 0 {
		p := r.queue[0]
		r.queue = r.queue[:copy(r.queue, r.queue[1:])]
		s.queued--
		s.admit(r, p)
	}
	if !r.busy && len(r.queue) == 0 && r.Txn == nil && len(r.Stashed) == 0 {
		s.Release(b)
	}
	s.dispatch()
}

// DeleteQueued removes queued (not yet started) commands on block b for
// which match returns true, returning how many were removed. This is the
// §3.2.5 "Deletes MREQUEST(j,a) from the queue" operation.
func (s *Serializer[T]) DeleteQueued(b addr.Block, match func(Pending) bool) int {
	q := &s.global
	if s.mode != SingleCommand {
		r := s.Rec(b)
		if r == nil {
			return 0
		}
		q = &r.queue // a queue is only ever behind a busy block: no release here
	}
	kept := (*q)[:0]
	for _, p := range *q {
		if p.M.Block != b || !match(p) {
			kept = append(kept, p)
		}
	}
	removed := len(*q) - len(kept)
	*q = kept
	s.queued -= removed
	return removed
}

// dispatch runs ready transactions iteratively, so a StartFunc that
// completes synchronously (calling Done, which may ready more work) cannot
// recurse arbitrarily deep. The queue is consumed by index, not by
// re-slicing the head away: a start that readies more work appends
// behind the cursor, and truncating to [:0] at the end keeps the
// backing array — the hot path admits millions of commands per
// campaign and must not reallocate the ready queue for each.
func (s *Serializer[T]) dispatch() {
	if s.dispatching {
		return
	}
	s.dispatching = true
	for i := 0; i < len(s.ready); i++ {
		s.start(s.ready[i])
	}
	s.ready = s.ready[:0]
	s.dispatching = false
}

package proto

import (
	"fmt"
	"reflect"
	"testing"

	"twobit/internal/addr"
	"twobit/internal/msg"
	"twobit/internal/network"
	"twobit/internal/rng"
)

// mapSerializer is the serializer as it stood before the slot table — two
// maps keyed by block — kept verbatim (names aside) as the model the
// indexed one is compared against.
type mapSerializer struct {
	mode  ConcurrencyMode
	start StartFunc

	busy   map[addr.Block]bool
	queues map[addr.Block][]Pending
	global []Pending
	active int

	ready       []Pending
	dispatching bool

	queued int
}

func newMapSerializer(mode ConcurrencyMode, start StartFunc) *mapSerializer {
	return &mapSerializer{
		mode:   mode,
		start:  start,
		busy:   make(map[addr.Block]bool),
		queues: make(map[addr.Block][]Pending),
	}
}

func (s *mapSerializer) Reset(mode ConcurrencyMode) {
	s.mode = mode
	clear(s.busy)
	clear(s.queues)
	s.global = s.global[:0]
	s.active = 0
	s.ready = s.ready[:0]
	s.dispatching = false
	s.queued = 0
}

func (s *mapSerializer) QueuedLen() int { return s.queued }

func (s *mapSerializer) Active(b addr.Block) bool {
	if s.mode == SingleCommand {
		return s.active > 0
	}
	return s.busy[b]
}

func (s *mapSerializer) ActiveCount() int { return s.active }

func (s *mapSerializer) Submit(p Pending) {
	if s.canRun(p.M.Block) {
		s.admit(p)
	} else {
		s.enqueue(p)
	}
	s.dispatch()
}

func (s *mapSerializer) canRun(b addr.Block) bool {
	if s.mode == SingleCommand {
		return s.active == 0
	}
	return !s.busy[b]
}

func (s *mapSerializer) admit(p Pending) {
	s.active++
	s.busy[p.M.Block] = true
	s.ready = append(s.ready, p)
}

func (s *mapSerializer) enqueue(p Pending) {
	s.queued++
	if s.mode == SingleCommand {
		s.global = append(s.global, p)
	} else {
		s.queues[p.M.Block] = append(s.queues[p.M.Block], p)
	}
}

func (s *mapSerializer) Done(b addr.Block) {
	if !s.Active(b) {
		panic(fmt.Sprintf("proto: Done(%v) without active transaction", b))
	}
	s.active--
	delete(s.busy, b)
	if s.mode == SingleCommand {
		if len(s.global) > 0 {
			p := s.global[0]
			s.global = s.global[1:]
			s.queued--
			s.admit(p)
		}
	} else {
		if q := s.queues[b]; len(q) > 0 {
			p := q[0]
			if len(q) == 1 {
				delete(s.queues, b)
			} else {
				s.queues[b] = q[1:]
			}
			s.queued--
			s.admit(p)
		}
	}
	s.dispatch()
}

func (s *mapSerializer) DeleteQueued(b addr.Block, match func(Pending) bool) int {
	filter := func(q []Pending) ([]Pending, int) {
		kept := q[:0]
		removed := 0
		for _, p := range q {
			if p.M.Block == b && match(p) {
				removed++
			} else {
				kept = append(kept, p)
			}
		}
		return kept, removed
	}
	var removed int
	if s.mode == SingleCommand {
		s.global, removed = filter(s.global)
	} else {
		q, r := filter(s.queues[b])
		removed = r
		if len(q) == 0 {
			delete(s.queues, b)
		} else {
			s.queues[b] = q
		}
	}
	s.queued -= removed
	return removed
}

func (s *mapSerializer) dispatch() {
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

func (s *mapSerializer) QueuedFor(b addr.Block) []Pending {
	var src []Pending
	if s.mode == SingleCommand {
		src = s.global
	} else {
		src = s.queues[b]
	}
	var out []Pending
	for _, p := range src {
		if p.M.Block == b {
			out = append(out, p)
		}
	}
	return out
}

// The differential harness's serializer is module 1 of three over 23
// blocks — eight blocks, 1, 4, … 22, none of them its own local index —
// so a slot reached by block number instead of LocalIndex shows.
var serSpace = addr.Space{Blocks: 23, Modules: 3}

const serModule, serBlocks = 1, 8

func serBlock(i byte) addr.Block { return addr.Block(serModule + 3*int(i%serBlocks)) }

// serMirror drives the indexed serializer and the map model through one
// script. Each has its own StartFunc, which records the start and, for a
// command from cache 6 or 7, completes it on the spot — the synchronous
// completion dispatch exists for. The indexed side also does with its
// record what core.Controller does: hangs a transaction on it from start
// to Done, and stashes and consumes early puts.
type serMirror struct {
	t           testing.TB
	s           *Serializer[int]
	m           *mapSerializer
	sLog, mLog  []Pending
	open        []addr.Block                // started, not yet Done, in start order (the model's view)
	stash       map[addr.Block][]StashedPut // the model's early puts
	txn         int
	step        int
	lastCommand string
}

func synchronous(p Pending) bool { return p.M.Cache >= 6 }

func newSerMirror(t testing.TB, mode ConcurrencyMode) *serMirror {
	x := &serMirror{t: t, stash: make(map[addr.Block][]StashedPut)}
	x.s = NewSerializer[int](mode, serSpace, serModule, func(p Pending) {
		x.sLog = append(x.sLog, p)
		r := x.s.Rec(p.M.Block)
		if r == nil || r.Txn != nil {
			x.t.Fatalf("step %d (%s): started %v on record %+v", x.step, x.lastCommand, p, r)
		}
		r.Txn = &x.txn
		if synchronous(p) {
			r.Txn = nil
			x.s.Done(p.M.Block)
		}
	})
	x.m = newMapSerializer(mode, func(p Pending) {
		x.mLog = append(x.mLog, p)
		if synchronous(p) {
			x.m.Done(p.M.Block)
		} else {
			x.open = append(x.open, p.M.Block)
		}
	})
	return x
}

// Script bytes come in pairs, an operation and its argument.
const (
	opSubmit = iota // ×6: block, kind and cache from the argument
	opDone   = 6    // ×4: the argument picks one open transaction
	opDelete = 10   // ×2: block from the argument, match on kind or on cache
	opStash  = 12   // an early put for the block
	opTake   = 13   // the picked open transaction consumes its oldest stashed put
	opReset  = 14   // Reset, to the mode in the argument's low bit
	opCount  = 15
)

var serKinds = []msg.Kind{msg.KindRequest, msg.KindMRequest, msg.KindEject, msg.KindUncachedRead}

func (x *serMirror) play(script []byte) {
	for i := 0; i+1 < len(script); i += 2 {
		x.step = i / 2
		op, arg := script[i]%opCount, script[i+1]
		b := serBlock(arg)
		switch {
		case op < opDone:
			p := Pending{Src: network.NodeID(arg >> 5), M: msg.Message{
				Kind: serKinds[arg>>3&3], Block: b, Cache: int(arg >> 5), Data: uint64(i)}}
			x.lastCommand = fmt.Sprintf("Submit %v", p.M)
			x.s.Submit(p)
			x.m.Submit(p)
		case op < opDelete:
			if len(x.open) == 0 {
				continue
			}
			k := int(arg) % len(x.open)
			b = x.open[k]
			x.open = append(x.open[:k], x.open[k+1:]...)
			x.lastCommand = fmt.Sprintf("Done %v", b)
			x.s.Rec(b).Txn = nil
			x.s.Done(b)
			x.m.Done(b)
		case op < opStash:
			match := func(p Pending) bool { return p.M.Kind == msg.KindMRequest }
			if arg&0x80 != 0 {
				match = func(p Pending) bool { return p.M.Cache == int(arg>>4&7) }
			}
			x.lastCommand = fmt.Sprintf("DeleteQueued %v", b)
			if got, want := x.s.DeleteQueued(b, match), x.m.DeleteQueued(b, match); got != want {
				x.t.Fatalf("step %d: DeleteQueued(%v) removed %d, the model %d", x.step, b, got, want)
			}
		case op == opStash:
			put := StashedPut{Cache: int(arg >> 5), Data: uint64(i)}
			x.lastCommand = fmt.Sprintf("stash %v", b)
			r := x.s.Track(b)
			r.Stashed = append(r.Stashed, put)
			x.stash[b] = append(x.stash[b], put)
		case op == opTake:
			if len(x.open) == 0 {
				continue
			}
			b = x.open[int(arg)%len(x.open)]
			if len(x.stash[b]) == 0 {
				continue
			}
			x.lastCommand = fmt.Sprintf("take %v", b)
			r := x.s.Rec(b)
			r.Stashed = r.Stashed[:copy(r.Stashed, r.Stashed[1:])]
			x.stash[b] = x.stash[b][1:]
		default:
			mode := ConcurrencyMode(arg & 1)
			x.lastCommand = fmt.Sprintf("Reset %v", mode)
			x.s.Reset(mode)
			x.m.Reset(mode)
			x.open = x.open[:0]
			clear(x.stash)
		}
		x.check()
	}
}

// check compares everything the serializer shows — and, because records
// are recycled, what it holds inside: exactly the blocks with something
// to track have a record, and the slot table and the live records name
// each other.
func (x *serMirror) check() {
	t, s, m := x.t, x.s, x.m
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (%s): %s", x.step, x.lastCommand, fmt.Sprintf(format, args...))
	}
	if !reflect.DeepEqual(x.sLog, x.mLog) {
		fail("start order diverged:\n got  %v\n want %v", x.sLog, x.mLog)
	}
	if s.ActiveCount() != m.ActiveCount() || s.QueuedLen() != m.QueuedLen() {
		fail("ActiveCount/QueuedLen = %d/%d, the model %d/%d", s.ActiveCount(), s.QueuedLen(), m.ActiveCount(), m.QueuedLen())
	}
	tracked := 0
	for i := byte(0); i < serBlocks; i++ {
		b := serBlock(i)
		if s.Active(b) != m.Active(b) {
			fail("Active(%v) = %v, the model %v", b, s.Active(b), m.Active(b))
		}
		if got, want := s.QueuedFor(b), m.QueuedFor(b); !reflect.DeepEqual(got, want) {
			fail("QueuedFor(%v) = %v, the model %v", b, got, want)
		}
		r := s.Rec(b)
		var stashed []StashedPut
		if r != nil {
			tracked++
			stashed = r.Stashed
		}
		if len(stashed) != len(x.stash[b]) || (len(stashed) > 0 && !reflect.DeepEqual(stashed, x.stash[b])) {
			fail("%v's stashed puts = %v, the model %v", b, stashed, x.stash[b])
		}
		if want := m.busy[b] || len(m.queues[b]) > 0 || len(x.stash[b]) > 0; (r != nil) != want {
			fail("%v has a record: %v; has something to track: %v", b, r != nil, want)
		}
		if li := serSpace.LocalIndex(b); r != nil && (s.recs[s.slots[li]-1].local != li || &s.recs[s.slots[li]-1].rec != r) {
			fail("%v's slot %d names a record of local index %d", b, s.slots[li], s.recs[s.slots[li]-1].local)
		}
	}
	if tracked != s.live {
		fail("%d live records, %d blocks tracked", s.live, tracked)
	}
	for _, tr := range s.recs[s.live:] {
		if r := tr.rec; r.busy || r.Txn != nil || len(r.queue) > 0 || len(r.Stashed) > 0 {
			fail("a recycled record is not empty: %+v", r)
		}
	}
}

// serSeams are scripts that walk the places a recycled record can go
// wrong; they are also FuzzSerializer's seed corpus.
var serSeams = []struct {
	name   string
	mode   ConcurrencyMode
	script []byte
}{
	// Two blocks tracked, the first released: the second's record moves
	// into its place and must still be found.
	{"release-swaps-last", PerBlock, []byte{
		opSubmit, 0, opSubmit, 1, opSubmit, 2, opDone, 0, opSubmit, 1, opDone, 0, opDone, 0, opDone, 0}},
	// A put stashed for an idle block keeps its record through another
	// block's Done and its own, until it is consumed.
	{"stash-outlives-done", PerBlock, []byte{
		opStash, 3, opSubmit, 4, opDone, 0, opSubmit, 3, opStash, 3, opTake, 0, opDone, 0, opSubmit, 3, opTake, 0, opDone, 0}},
	// Queue behind a busy block, delete from the middle, drain.
	{"queue-delete-drain", PerBlock, []byte{
		opSubmit, 5, opSubmit, 5 | 1<<3, opSubmit, 5 | 2<<5, opSubmit, 5 | 1<<3 | 3<<5, opDelete, 5, opDone, 0, opDone, 0, opDone, 0}},
	// Synchronous completions drain a queue from inside dispatch.
	{"synchronous-drain", PerBlock, []byte{
		opSubmit, 6, opSubmit, 6 | 6<<5, opSubmit, 6 | 7<<5, opSubmit, 6 | 1<<5, opDone, 0, opDone, 0}},
	// One command at a time: other blocks queue globally, and the queue
	// is popped often enough to walk a re-sliced head off its array.
	{"single-command", SingleCommand, []byte{
		opSubmit, 0, opSubmit, 1, opSubmit, 2, opSubmit, 1 | 6<<5, opDelete, 2, opDone, 0, opDone, 0,
		opSubmit, 3, opSubmit, 4, opDone, 0, opSubmit, 5, opDone, 0, opDone, 0, opDone, 0}},
	// Reset with work open, queued and stashed, into the other mode and
	// back.
	{"reset-both-ways", PerBlock, []byte{
		opSubmit, 0, opSubmit, 0, opSubmit, 1, opStash, 2, opReset, 1,
		opSubmit, 0, opSubmit, 1, opStash, 1, opReset, 0, opSubmit, 1, opSubmit, 1, opDone, 0, opDone, 0}},
}

// TestSerializerDifferential: the slot-table serializer and the map one
// it replaced agree after every step of seeded scripts in both modes —
// start order, Active, ActiveCount, QueuedLen, QueuedFor — through
// synchronous completions and Resets, and the record pool stays
// consistent with what is tracked.
func TestSerializerDifferential(t *testing.T) {
	for _, tc := range serSeams {
		t.Run(tc.name, func(t *testing.T) { newSerMirror(t, tc.mode).play(tc.script) })
	}
	r := rng.New(0x5e71a1, 16)
	for round := 0; round < 300; round++ {
		script := make([]byte, 2*(1+r.Intn(200)))
		for i := range script {
			script[i] = byte(r.Intn(256))
		}
		if round%3 > 0 {
			// Resets end most histories early; leave them out of two
			// scripts in three.
			for i := 0; i < len(script); i += 2 {
				if script[i]%opCount == opReset {
					script[i] = opDone
				}
			}
		}
		newSerMirror(t, ConcurrencyMode(round&1)).play(script)
	}
}

// FuzzSerializer plays an arbitrary script against the map model; the
// first byte picks the starting mode. Scripts are cut at 256 bytes, as
// FuzzKernelOrder's are and for its reason.
func FuzzSerializer(f *testing.F) {
	for _, tc := range serSeams {
		f.Add(append([]byte{byte(tc.mode)}, tc.script...))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		script = script[:min(len(script), 256)]
		newSerMirror(t, ConcurrencyMode(script[0]&1)).play(script[1:])
	})
}

// TestSerializerRejectsForeignBlocks: a block of another module, or one
// beyond the space, is a named panic wherever it enters — never another
// block's slot, never an index out of range.
func TestSerializerRejectsForeignBlocks(t *testing.T) {
	s := NewSerializer[int](PerBlock, serSpace, serModule, func(Pending) {})
	for _, b := range []addr.Block{0, 2, 3, 23, 25, 1 << 40} {
		for name, enter := range map[string]func(){
			"Submit": func() { s.Submit(pendFor(b, msg.KindRequest, 0)) },
			"Done":   func() { s.Done(b) },
			"Track":  func() { s.Track(b) },
			"Rec":    func() { s.Rec(b) },
		} {
			func() {
				defer func() {
					want := fmt.Sprintf("proto: %v is not a block of module 1 in a space of 23 blocks over 3 modules", b)
					if got := recover(); got != want {
						t.Errorf("%s(%v): panic %v, want %q", name, b, got, want)
					}
				}()
				enter()
			}()
		}
	}
	if s.ActiveCount() != 0 || s.live != 0 {
		t.Fatalf("rejected blocks left %d active, %d records", s.ActiveCount(), s.live)
	}
}

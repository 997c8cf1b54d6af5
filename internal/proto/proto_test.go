package proto

import (
	"testing"

	"twobit/internal/addr"
	"twobit/internal/msg"
	"twobit/internal/network"
)

func TestTopologyNodes(t *testing.T) {
	topo := Topology{Caches: 4, Modules: 2}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.Nodes() != 6 {
		t.Fatalf("Nodes = %d", topo.Nodes())
	}
	if topo.CacheNode(3) != 3 || topo.CtrlNode(0) != 4 || topo.CtrlNode(1) != 5 {
		t.Fatal("node layout wrong")
	}
	if topo.CtrlFor(addr.Block(7)) != topo.CtrlNode(1) {
		t.Fatal("CtrlFor interleaving wrong")
	}
	if i, ok := topo.CacheIndex(2); !ok || i != 2 {
		t.Fatal("CacheIndex wrong for cache node")
	}
	if _, ok := topo.CacheIndex(5); ok {
		t.Fatal("CacheIndex accepted controller node")
	}
	if len(topo.CacheNodes()) != 4 {
		t.Fatal("CacheNodes wrong")
	}
}

func TestTopologyValidate(t *testing.T) {
	if err := (Topology{Caches: 0, Modules: 1}).Validate(); err == nil {
		t.Error("zero caches accepted")
	}
	if err := (Topology{Caches: 1, Modules: 0}).Validate(); err == nil {
		t.Error("zero modules accepted")
	}
}

func pendFor(b addr.Block, kind msg.Kind, cache int) Pending {
	return Pending{Src: network.NodeID(cache), M: msg.Message{Kind: kind, Block: b, Cache: cache}}
}

// newSer is a serializer for the sixteen blocks of a one-module space,
// with no owner transaction type.
func newSer(mode ConcurrencyMode, start StartFunc) *Serializer[struct{}] {
	return NewSerializer[struct{}](mode, addr.Space{Blocks: 16, Modules: 1}, 0, start)
}

func TestSerializerPerBlockConcurrency(t *testing.T) {
	var started []Pending
	s := newSer(PerBlock, func(p Pending) { started = append(started, p) })
	s.Submit(pendFor(1, msg.KindRequest, 0))
	s.Submit(pendFor(2, msg.KindRequest, 1)) // distinct block: runs concurrently
	s.Submit(pendFor(1, msg.KindRequest, 2)) // same block: queues
	if len(started) != 2 {
		t.Fatalf("started %d, want 2", len(started))
	}
	if s.QueuedLen() != 1 || !s.Active(1) || !s.Active(2) || s.ActiveCount() != 2 {
		t.Fatalf("state: queued=%d active1=%v active2=%v", s.QueuedLen(), s.Active(1), s.Active(2))
	}
	s.Done(1)
	if len(started) != 3 || started[2].M.Cache != 2 {
		t.Fatalf("queued command did not start: %v", started)
	}
	s.Done(1)
	s.Done(2)
	if s.ActiveCount() != 0 {
		t.Fatal("transactions left active")
	}
}

func TestSerializerSingleCommandMode(t *testing.T) {
	var started []Pending
	s := newSer(SingleCommand, func(p Pending) { started = append(started, p) })
	s.Submit(pendFor(1, msg.KindRequest, 0))
	s.Submit(pendFor(2, msg.KindRequest, 1)) // distinct block still queues
	if len(started) != 1 || s.QueuedLen() != 1 {
		t.Fatalf("single-command served %d concurrently", len(started))
	}
	s.Done(1)
	if len(started) != 2 {
		t.Fatal("next command did not start after Done")
	}
	s.Done(2)
}

func TestSerializerDeleteQueuedMRequests(t *testing.T) {
	// The §3.2.5 scenario: MREQUEST(i,a) is being serviced, MREQUEST(j,a)
	// is queued; after BROADINV(a,i), the queued one must be deletable.
	var started []Pending
	s := newSer(PerBlock, func(p Pending) { started = append(started, p) })
	s.Submit(pendFor(7, msg.KindMRequest, 0)) // i
	s.Submit(pendFor(7, msg.KindMRequest, 1)) // j, queued
	s.Submit(pendFor(7, msg.KindRequest, 2))  // unrelated request, queued
	removed := s.DeleteQueued(7, func(p Pending) bool {
		return p.M.Kind == msg.KindMRequest && p.M.Cache != 0
	})
	if removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	s.Done(7)
	if len(started) != 2 || started[1].M.Kind != msg.KindRequest {
		t.Fatalf("wrong command started after deletion: %+v", started)
	}
	s.Done(7)
}

func TestSerializerDeleteQueuedSingleCommand(t *testing.T) {
	var started []Pending
	s := newSer(SingleCommand, func(p Pending) { started = append(started, p) })
	s.Submit(pendFor(7, msg.KindRequest, 0))
	s.Submit(pendFor(7, msg.KindMRequest, 1))
	s.Submit(pendFor(9, msg.KindMRequest, 2)) // other block must survive
	if n := s.DeleteQueued(7, func(p Pending) bool { return p.M.Kind == msg.KindMRequest }); n != 1 {
		t.Fatalf("removed %d, want 1", n)
	}
	s.Done(7)
	if len(started) != 2 || started[1].M.Block != 9 {
		t.Fatalf("started = %+v", started)
	}
	s.Done(9)
}

func TestSerializerSynchronousCompletionNoRecursion(t *testing.T) {
	// A StartFunc that completes immediately must drain a long queue
	// without stack growth or missed entries.
	var s *Serializer[struct{}]
	count := 0
	s = newSer(PerBlock, func(p Pending) {
		count++
		s.Done(p.M.Block)
	})
	for i := 0; i < 10000; i++ {
		s.Submit(pendFor(5, msg.KindRequest, i%4))
	}
	if count != 10000 {
		t.Fatalf("serviced %d, want 10000", count)
	}
	if s.QueuedLen() != 0 || s.ActiveCount() != 0 {
		t.Fatal("serializer not drained")
	}
}

func TestSerializerDonePanicsWithoutActive(t *testing.T) {
	s := newSer(PerBlock, func(Pending) {})
	defer func() {
		if recover() == nil {
			t.Fatal("Done without active transaction did not panic")
		}
	}()
	s.Done(3)
}

func TestSerializerFIFOWithinBlock(t *testing.T) {
	var order []int
	var s *Serializer[struct{}]
	s = newSer(PerBlock, func(p Pending) { order = append(order, p.M.Cache) })
	for i := 0; i < 5; i++ {
		s.Submit(pendFor(1, msg.KindRequest, i))
	}
	for i := 0; i < 5; i++ {
		s.Done(1)
	}
	for i, c := range order {
		if c != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestConcurrencyModeString(t *testing.T) {
	if PerBlock.String() != "per-block" || SingleCommand.String() != "single-command" {
		t.Error("mode names wrong")
	}
	if ConcurrencyMode(7).String() == "" {
		t.Error("unknown mode empty")
	}
}

func TestCtrlStatsQueueHighWater(t *testing.T) {
	var s CtrlStats
	s.NoteQueue(3)
	s.NoteQueue(1)
	if s.MaxQueue != 3 {
		t.Fatalf("MaxQueue = %d", s.MaxQueue)
	}
}

func TestDefaultLatencies(t *testing.T) {
	l := DefaultLatencies()
	if l.CacheHit <= 0 || l.Memory <= l.CacheHit || l.CtrlService <= 0 {
		t.Fatalf("implausible defaults: %+v", l)
	}
}

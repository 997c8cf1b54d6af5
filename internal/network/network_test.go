package network

import (
	"testing"

	"twobit/internal/msg"
	"twobit/internal/rng"
	"twobit/internal/sim"
)

type recorder struct {
	got []msg.Message
	at  []sim.Time
	k   *sim.Kernel
}

func (r *recorder) Deliver(src NodeID, m msg.Message) {
	r.got = append(r.got, m)
	r.at = append(r.at, r.k.Now())
}

func mkMsg(kind msg.Kind, data uint64) msg.Message {
	return msg.Message{Kind: kind, Block: 1, Data: data}
}

func TestCrossbarDeliveryAndLatency(t *testing.T) {
	var k sim.Kernel
	n := NewCrossbar(&k, 5)
	r := &recorder{k: &k}
	n.Attach(0, r)
	n.Attach(1, HandlerFunc(func(NodeID, msg.Message) {}))
	k.At(10, func() { n.Send(1, 0, mkMsg(msg.KindRequest, 0)) })
	k.Run()
	if len(r.got) != 1 || r.at[0] != 15 {
		t.Fatalf("delivery at %v, want [15]", r.at)
	}
}

func TestCrossbarFIFOPerPair(t *testing.T) {
	var k sim.Kernel
	n := NewCrossbar(&k, 3)
	r := &recorder{k: &k}
	n.Attach(0, r)
	n.Attach(1, HandlerFunc(func(NodeID, msg.Message) {}))
	for i := uint64(0); i < 10; i++ {
		i := i
		k.At(sim.Time(i), func() { n.Send(1, 0, mkMsg(msg.KindGet, i)) })
	}
	k.Run()
	for i, m := range r.got {
		if m.Data != uint64(i) {
			t.Fatalf("out-of-order delivery: %v", r.got)
		}
	}
}

func TestCrossbarBroadcastSkipsSrcAndExcept(t *testing.T) {
	var k sim.Kernel
	n := NewCrossbar(&k, 1)
	recs := make([]*recorder, 4)
	for i := range recs {
		recs[i] = &recorder{k: &k}
		n.Attach(NodeID(i), recs[i])
	}
	var sent int
	k.At(0, func() { sent = n.Broadcast(3, mkMsg(msg.KindBroadInv, 0), 1) })
	k.Run()
	if sent != 2 {
		t.Fatalf("broadcast sent %d copies, want 2", sent)
	}
	if len(recs[0].got) != 1 || len(recs[2].got) != 1 {
		t.Fatal("nodes 0 and 2 did not receive broadcast")
	}
	if len(recs[1].got) != 0 || len(recs[3].got) != 0 {
		t.Fatal("excluded/source node received broadcast")
	}
	if n.Stats().Broadcasts.Value() != 1 || n.Stats().BroadcastCopies.Value() != 2 {
		t.Fatalf("broadcast stats = %d/%d", n.Stats().Broadcasts.Value(), n.Stats().BroadcastCopies.Value())
	}
}

func TestAttachTwicePanics(t *testing.T) {
	var k sim.Kernel
	n := NewCrossbar(&k, 1)
	n.Attach(0, HandlerFunc(func(NodeID, msg.Message) {}))
	defer func() {
		if recover() == nil {
			t.Fatal("double attach did not panic")
		}
	}()
	n.Attach(0, HandlerFunc(func(NodeID, msg.Message) {}))
}

func TestSendToUnattachedPanics(t *testing.T) {
	var k sim.Kernel
	n := NewCrossbar(&k, 1)
	n.Attach(0, HandlerFunc(func(NodeID, msg.Message) {}))
	defer func() {
		if recover() == nil {
			t.Fatal("send to unattached node did not panic")
		}
	}()
	n.Send(0, 9, mkMsg(msg.KindGet, 0))
}

func TestControlVsDataCounting(t *testing.T) {
	var k sim.Kernel
	n := NewCrossbar(&k, 1)
	n.Attach(0, HandlerFunc(func(NodeID, msg.Message) {}))
	n.Attach(1, HandlerFunc(func(NodeID, msg.Message) {}))
	n.Send(0, 1, mkMsg(msg.KindRequest, 0))
	n.Send(0, 1, mkMsg(msg.KindPut, 0))
	n.Send(0, 1, mkMsg(msg.KindGet, 0))
	k.Run()
	s := n.Stats()
	if s.ControlMessages.Value() != 1 || s.DataMessages.Value() != 2 || s.Messages.Value() != 3 {
		t.Fatalf("counts control=%d data=%d total=%d", s.ControlMessages.Value(), s.DataMessages.Value(), s.Messages.Value())
	}
}

func TestBusSerializesTransactions(t *testing.T) {
	var k sim.Kernel
	b := NewBus(&k, 4, 1)
	r := &recorder{k: &k}
	b.Attach(0, r)
	b.Attach(1, HandlerFunc(func(NodeID, msg.Message) {}))
	b.Attach(2, HandlerFunc(func(NodeID, msg.Message) {}))
	// Two sends at t=0 must serialize: deliveries at 1 and 5.
	k.At(0, func() {
		b.Send(1, 0, mkMsg(msg.KindBusRead, 1))
		b.Send(2, 0, mkMsg(msg.KindBusRead, 2))
	})
	k.Run()
	if len(r.at) != 2 || r.at[0] != 1 || r.at[1] != 5 {
		t.Fatalf("bus deliveries at %v, want [1 5]", r.at)
	}
	if b.Stats().BusBusyCycles.Value() != 8 {
		t.Fatalf("bus busy = %d, want 8", b.Stats().BusBusyCycles.Value())
	}
}

func TestBusBroadcastIsOneTransaction(t *testing.T) {
	var k sim.Kernel
	b := NewBus(&k, 4, 1)
	recs := make([]*recorder, 3)
	for i := range recs {
		recs[i] = &recorder{k: &k}
		b.Attach(NodeID(i), recs[i])
	}
	k.At(0, func() { b.Broadcast(0, mkMsg(msg.KindInvAll, 0)) })
	k.Run()
	if len(recs[1].got) != 1 || len(recs[2].got) != 1 || len(recs[0].got) != 0 {
		t.Fatal("bus broadcast delivery wrong")
	}
	// All copies share one bus occupancy.
	if b.Stats().BusBusyCycles.Value() != 4 {
		t.Fatalf("bus busy = %d, want 4", b.Stats().BusBusyCycles.Value())
	}
	if recs[1].at[0] != recs[2].at[0] {
		t.Fatal("bus broadcast copies delivered at different times")
	}
}

func TestBusUtilization(t *testing.T) {
	var k sim.Kernel
	b := NewBus(&k, 2, 0)
	b.Attach(0, HandlerFunc(func(NodeID, msg.Message) {}))
	b.Attach(1, HandlerFunc(func(NodeID, msg.Message) {}))
	k.At(0, func() { b.Send(0, 1, mkMsg(msg.KindBusRead, 0)) })
	k.At(10, func() { b.Send(0, 1, mkMsg(msg.KindBusRead, 0)) })
	k.Run()
	// 4 busy cycles over 12 elapsed (the last event ran at t=12... delivery
	// at acquire+0 = 10; clock ends at 10). Just sanity-check the range.
	u := b.Utilization()
	if u <= 0 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestOmegaConnectsAllPairs(t *testing.T) {
	var k sim.Kernel
	o := NewOmega(&k, 8, 1)
	if o.Size() != 8 {
		t.Fatalf("Size = %d", o.Size())
	}
	recs := make([]*recorder, 8)
	for i := range recs {
		recs[i] = &recorder{k: &k}
		o.Attach(NodeID(i), recs[i])
	}
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if s == d {
				continue
			}
			o.Send(NodeID(s), NodeID(d), mkMsg(msg.KindGet, uint64(s*8+d)))
		}
	}
	k.Run()
	for d := 0; d < 8; d++ {
		if len(recs[d].got) != 7 {
			t.Fatalf("node %d received %d messages, want 7", d, len(recs[d].got))
		}
	}
}

func TestOmegaContentionDelaysConflictingRoutes(t *testing.T) {
	var k sim.Kernel
	o := NewOmega(&k, 8, 2)
	r := &recorder{k: &k}
	o.Attach(0, r)
	for i := 1; i < 8; i++ {
		o.Attach(NodeID(i), HandlerFunc(func(NodeID, msg.Message) {}))
	}
	// Everyone sends to node 0 at once: final-stage link conflicts force
	// serialization; with hop=2 and 3 stages, min latency is 6 and each
	// additional message adds at least 2 at the contended last link.
	k.At(0, func() {
		for i := 1; i < 8; i++ {
			o.Send(NodeID(i), 0, mkMsg(msg.KindGet, uint64(i)))
		}
	})
	k.Run()
	if len(r.at) != 7 {
		t.Fatalf("received %d, want 7", len(r.at))
	}
	if r.at[0] < 6 {
		t.Fatalf("first delivery at %d, want ≥ 6", r.at[0])
	}
	last := r.at[len(r.at)-1]
	if last < 6+2*6 {
		t.Fatalf("last delivery at %d, want ≥ 18 (serialized)", last)
	}
	if o.Stats().StageConflicts.Value() == 0 {
		t.Fatal("no stage conflicts recorded under all-to-one traffic")
	}
}

func TestOmegaSizeRoundsUp(t *testing.T) {
	var k sim.Kernel
	if NewOmega(&k, 5, 1).Size() != 8 {
		t.Fatal("size 5 did not round to 8")
	}
	if NewOmega(&k, 1, 1).Size() != 2 {
		t.Fatal("size 1 did not round to 2")
	}
}

// Property: on every network type, N point-to-point sends produce exactly N
// deliveries, each to the right node.
func TestPropertyDeliveryConservation(t *testing.T) {
	r := rng.New(77, 1)
	for _, build := range []func(*sim.Kernel) Network{
		func(k *sim.Kernel) Network { return NewCrossbar(k, 2) },
		func(k *sim.Kernel) Network { return NewBus(k, 2, 1) },
		func(k *sim.Kernel) Network { return NewOmega(k, 8, 1) },
	} {
		var k sim.Kernel
		n := build(&k)
		const nodes = 8
		counts := make([]int, nodes)
		for i := 0; i < nodes; i++ {
			i := i
			n.Attach(NodeID(i), HandlerFunc(func(src NodeID, m msg.Message) {
				counts[i]++
			}))
		}
		want := make([]int, nodes)
		const sends = 200
		for s := 0; s < sends; s++ {
			src := NodeID(r.Intn(nodes))
			dst := NodeID(r.Intn(nodes))
			if src == dst {
				continue
			}
			want[dst]++
			n.Send(src, dst, mkMsg(msg.KindRequest, uint64(s)))
		}
		k.Run()
		for i := range counts {
			if counts[i] != want[i] {
				t.Fatalf("%T: node %d got %d, want %d", n, i, counts[i], want[i])
			}
		}
	}
}

// TestZeroAllocBroadcast holds the floor under the delivery path the
// protocols lean on hardest: one bus broadcast snooped by every node and
// drained through the kernel allocates nothing once the heap and the
// delivery slab have grown, whatever the fan-out width.
func TestZeroAllocBroadcast(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, nodes := range []int{8, 32} {
		var k sim.Kernel
		bus := NewBus(&k, 1, 4)
		var sink uint64
		h := HandlerFunc(func(_ NodeID, m msg.Message) { sink += m.Data })
		for i := 0; i < nodes; i++ {
			bus.Attach(NodeID(i), h)
		}
		run := func() {
			bus.Broadcast(0, mkMsg(msg.KindBroadInv, 1))
			for k.Step() {
			}
		}
		run() // grow heap + delivery slab to the high-water mark
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("nodes=%d: bus broadcast allocates %v per fan-out, want 0", nodes, allocs)
		}
		if sink == 0 {
			t.Errorf("nodes=%d: no snooper saw the broadcast", nodes)
		}
	}
}

func BenchmarkCrossbarSend(b *testing.B) {
	var k sim.Kernel
	n := NewCrossbar(&k, 2)
	n.Attach(0, HandlerFunc(func(NodeID, msg.Message) {}))
	n.Attach(1, HandlerFunc(func(NodeID, msg.Message) {}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(0, 1, mkMsg(msg.KindRequest, 0))
		k.Run()
	}
}

func TestJitterCrossbarPreservesPerPairFIFO(t *testing.T) {
	var k sim.Kernel
	n := NewJitterCrossbar(&k, 2, 25, 7)
	r := &recorder{k: &k}
	n.Attach(0, r)
	n.Attach(1, HandlerFunc(func(NodeID, msg.Message) {}))
	n.Attach(2, HandlerFunc(func(NodeID, msg.Message) {}))
	// Interleave sends from two sources to node 0; each source's stream
	// must arrive in order despite the jitter.
	for i := uint64(0); i < 200; i++ {
		i := i
		k.At(sim.Time(i), func() {
			n.Send(1, 0, mkMsg(msg.KindGet, i*2))
			n.Send(2, 0, mkMsg(msg.KindPut, i*2+1))
		})
	}
	k.Run()
	if len(r.got) != 400 {
		t.Fatalf("received %d, want 400", len(r.got))
	}
	var last1, last2 int64 = -1, -1
	for _, m := range r.got {
		if m.Data%2 == 0 {
			if int64(m.Data) < last1 {
				t.Fatalf("pair (1,0) reordered: %d after %d", m.Data, last1)
			}
			last1 = int64(m.Data)
		} else {
			if int64(m.Data) < last2 {
				t.Fatalf("pair (2,0) reordered: %d after %d", m.Data, last2)
			}
			last2 = int64(m.Data)
		}
	}
}

func TestJitterActuallyVariesDelay(t *testing.T) {
	var k sim.Kernel
	n := NewJitterCrossbar(&k, 2, 25, 7)
	r := &recorder{k: &k}
	n.Attach(0, r)
	n.Attach(1, HandlerFunc(func(NodeID, msg.Message) {}))
	// One message per distinct time, far enough apart that FIFO clamping
	// never hides the jitter.
	for i := 0; i < 100; i++ {
		i := i
		k.At(sim.Time(i*100), func() { n.Send(1, 0, mkMsg(msg.KindGet, uint64(i))) })
	}
	k.Run()
	delays := map[sim.Time]bool{}
	for i, at := range r.at {
		delays[at-sim.Time(i*100)] = true
	}
	if len(delays) < 5 {
		t.Fatalf("only %d distinct delays observed; jitter not applied", len(delays))
	}
	for d := range delays {
		if d < 2 || d > 27 {
			t.Fatalf("delay %d outside [latency, latency+jitter]", d)
		}
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []sim.Time {
		var k sim.Kernel
		n := NewJitterCrossbar(&k, 2, 10, seed)
		r := &recorder{k: &k}
		n.Attach(0, r)
		n.Attach(1, HandlerFunc(func(NodeID, msg.Message) {}))
		for i := 0; i < 50; i++ {
			i := i
			k.At(sim.Time(i*50), func() { n.Send(1, 0, mkMsg(msg.KindGet, uint64(i))) })
		}
		k.Run()
		return r.at
	}
	a, b := run(3), run(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different delays")
		}
	}
	c := run(4)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical delays")
	}
}

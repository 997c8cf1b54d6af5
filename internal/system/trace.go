package system

import (
	"fmt"
	"io"

	"twobit/internal/msg"
	"twobit/internal/network"
	"twobit/internal/obs"
)

// traceNet decorates a Network, logging every send and broadcast with the
// simulated time to w. A machine built with Config.TraceWriter carries
// one, and each reset points w at the run's writer; invaluable when
// debugging protocol races.
type traceNet struct {
	inner network.Network
	m     *Machine
	w     io.Writer
}

// unwrapBus recovers the concrete bus through a possible trace wrapper.
func unwrapBus(n network.Network) (*network.Bus, bool) {
	switch v := n.(type) {
	case *network.Bus:
		return v, true
	case *traceNet:
		return unwrapBus(v.inner)
	}
	return nil, false
}

func (t *traceNet) name(id network.NodeID) string {
	if i, ok := t.m.topo.CacheIndex(id); ok {
		return fmt.Sprintf("C%d", i)
	}
	return fmt.Sprintf("K%d", int(id)-t.m.topo.Caches)
}

func (t *traceNet) Attach(id network.NodeID, h network.Handler) { t.inner.Attach(id, h) }

func (t *traceNet) Send(src, dst network.NodeID, m msg.Message) {
	fmt.Fprintf(t.w, "%8d  %s -> %s  %v\n", t.m.kernel.Now(), t.name(src), t.name(dst), m)
	t.inner.Send(src, dst, m)
}

func (t *traceNet) Broadcast(src network.NodeID, m msg.Message, except ...network.NodeID) int {
	fmt.Fprintf(t.w, "%8d  %s -> *   %v\n", t.m.kernel.Now(), t.name(src), m)
	return t.inner.Broadcast(src, m, except...)
}

func (t *traceNet) Stats() *network.Stats { return t.inner.Stats() }

func (t *traceNet) Observe(rec *obs.Recorder, names func(network.NodeID) string) {
	t.inner.Observe(rec, names)
}

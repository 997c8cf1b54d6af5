// Package net is the hot-path package written the way the analyzer
// demands: pooled scheduling throughout, and one documented //lint:allow
// for a cold loop.
package net

import "hotpathgood/sim"

// Net fans messages out to destinations through the pooled form.
type Net struct {
	k    *sim.Kernel
	dsts []int
}

func deliver(dst, m uint64) {}

// Call implements sim.Caller.
func (n *Net) Call(a0, a1 uint64) { deliver(a0, a1) }

// Fanout schedules one pooled delivery per destination: no closures.
func (n *Net) Fanout(m uint64) {
	for _, d := range n.dsts {
		n.k.AtCall(int64(d), n, uint64(d), m)
	}
}

// Setup runs once at construction; its closures are a deliberate,
// documented exception.
func (n *Net) Setup() {
	for _, d := range n.dsts {
		dd := uint64(d)
		//lint:allow closure-in-hotpath construction-time wiring, not the steady-state path
		n.k.After(0, func() { deliver(dd, 0) })
	}
}

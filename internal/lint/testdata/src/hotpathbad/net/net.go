// Package net is a hot-path package scheduling through the kernel's
// closure form, which the analyzer must reject wherever it appears; the
// test pins the positions.
package net

import "hotpathbad/sim"

// Net fans messages out to destinations.
type Net struct {
	k    *sim.Kernel
	dsts []int
}

func deliver(dst, m int) {}

// Fanout schedules one delivery per destination, a fresh closure each.
func (n *Net) Fanout(m int) {
	for _, d := range n.dsts {
		n.k.At(int64(d), func() { deliver(d, m) })
	}
	for i := 0; i < len(n.dsts); i++ {
		dst := n.dsts[i]
		n.k.After(1, func() { deliver(dst, m) })
	}
}

// Hoisted allocates its closure once per call, not per iteration — still
// once per message on a hot path, and still a finding.
func (n *Net) Hoisted(m int) {
	fn := func() { deliver(0, m) }
	for i := 0; i < 4; i++ {
		n.k.After(int64(i), fn)
	}
}

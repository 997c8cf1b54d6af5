package core

import (
	"twobit/internal/addr"
	"twobit/internal/directory"
	"twobit/internal/msg"
	"twobit/internal/proto"
)

// BlockSnapshot is the controller's observable state for one block, for
// the model checker's fingerprints (internal/mcheck). Together with the
// cache frames and the in-flight messages it determines the controller's
// future behavior at a drained instant: the open transaction is a plain
// record, and only it mutates its block's directory state.
type BlockSnapshot struct {
	// State is the directory state — for an exact policy, the two-bit
	// abstraction of (Holders, Modified).
	State directory.State
	// Holders is the exact presence bitmask and Modified the m bit; both
	// zero under the two-bit policy.
	Holders  uint64
	Modified bool
	// Mem is main memory's stored version.
	Mem uint64
	// Active is true while a transaction on this block is being serviced;
	// ActiveCmd is the command it services.
	Active    bool
	ActiveCmd msg.Message
	// Waiting is true while the active transaction is parked on a put (a
	// query answer or an eviction write-back).
	Waiting bool
	// AwaitingAck is true while an MREQUEST grant awaits its MACK.
	AwaitingAck bool
	// Stashed lists puts that arrived before their transaction started,
	// in arrival order.
	Stashed []StashedPut
	// Queued lists the commands queued behind the active transaction, in
	// service order.
	Queued []msg.Message
}

// StashedPut is one buffered early put: who sent it and its data.
type StashedPut = proto.StashedPut

// BlockSnapshot returns the observable controller state for block b.
func (c *Controller) BlockSnapshot(b addr.Block) BlockSnapshot {
	s := BlockSnapshot{
		State: c.State(b),
		Mem:   c.Mem.Read(b),
	}
	s.Holders, s.Modified = c.dir.entry(b)
	if r := c.ser.Rec(b); r != nil {
		if t := r.Txn; t != nil {
			s.Active = true
			s.ActiveCmd = t.p.M
			s.Waiting = t.phase == phData
			s.AwaitingAck = t.phase == phAck
		}
		s.Stashed = append(s.Stashed, r.Stashed...)
	}
	for _, p := range c.ser.QueuedFor(b) {
		s.Queued = append(s.Queued, p.M)
	}
	return s
}

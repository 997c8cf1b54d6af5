package proto

import "twobit/internal/addr"

// AgentSnapshot is the observable in-flight state of a CacheAgent, for
// the model checker's state fingerprints (internal/mcheck). It captures
// exactly the fields that determine the agent's future behavior at a
// drained instant: whether a reference is outstanding, what it is, and
// which reply the agent is parked on. Timing fields (issuedAt) are
// deliberately excluded — they never influence which transitions are
// enabled, only when they fire, and including them would keep the
// reachable state graph from closing.
type AgentSnapshot struct {
	// Busy mirrors Busy(): a processor reference is outstanding.
	Busy bool
	// Block and Write describe the outstanding reference.
	Block addr.Block
	Write bool
	// WriteVersion is the version the outstanding write will install.
	WriteVersion uint64
	// AwaitingGrant is true while an MREQUEST is outstanding (the agent
	// is parked on MGRANTED); false while parked on a get.
	AwaitingGrant bool
}

// Snapshot returns the agent's observable in-flight state.
func (a *CacheAgent) Snapshot() AgentSnapshot {
	if !a.Waiting {
		return AgentSnapshot{}
	}
	return AgentSnapshot{
		Busy:          true,
		Block:         a.Ref.Block,
		Write:         a.Ref.Write,
		WriteVersion:  a.Version,
		AwaitingGrant: a.phase == pendAwaitMGrant,
	}
}

// QueuedFor returns the queued (not yet started) commands for block b in
// service order, for state fingerprints. In SingleCommand mode the global
// queue is filtered to b. The returned slice is freshly allocated.
func (s *Serializer[T]) QueuedFor(b addr.Block) []Pending {
	src := s.global
	if s.mode != SingleCommand {
		src = nil
		if r := s.Rec(b); r != nil {
			src = r.queue
		}
	}
	var out []Pending
	for _, p := range src {
		if p.M.Block == b {
			out = append(out, p)
		}
	}
	return out
}

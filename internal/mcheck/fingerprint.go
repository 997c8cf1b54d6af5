package mcheck

import (
	"encoding/binary"

	"twobit/internal/addr"
	"twobit/internal/msg"
	"twobit/internal/network"
)

// encoder serializes a machine's observable state into a canonical byte
// string — the state's identity for deduplication. Scratch buffers are
// reused across calls; one encoder serves the whole exploration.
//
// Two normalizations make the reachable graph close over executions that
// differ only in bookkeeping:
//
//   - Write versions are globally unique counters, so raw values grow
//     without bound. The protocols never compare versions — they only
//     move them — so two states with the same equality pattern are
//     bisimilar: versions are relabeled in first-encounter order of the
//     encoding walk (0, the initial-memory version, stays 0).
//   - The caches are interchangeable. With symmetry enabled the encoder
//     emits the lexicographically least encoding over all cache-index
//     permutations; every permuted field (per-cache sections, cache
//     indices inside messages, full-map presence bits, network pair
//     order) is mapped consistently.
type encoder struct {
	perms [][]int  // all cache permutations (or just identity)
	inv   []int    // scratch: concrete cache index → canonical position
	vmap  []uint64 // scratch: raw version → canonical label
	buf   []byte   // scratch: current encoding
	best  []byte   // scratch: least encoding so far
}

const versionUnmapped = ^uint64(0)

func newEncoder(cfg Config) *encoder {
	e := &encoder{}
	if cfg.NoSymmetry {
		e.perms = [][]int{identityPerm(cfg.Caches)}
	} else {
		e.perms = permutations(cfg.Caches)
	}
	e.inv = make([]int, cfg.Caches)
	return e
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// permutations returns all permutations of [0,n) in a deterministic
// order (n ≤ 5, so at most 120).
func permutations(n int) [][]int {
	var out [][]int
	var rec func(cur []int, used []bool)
	rec = func(cur []int, used []bool) {
		if len(cur) == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := 0; i < n; i++ {
			if !used[i] {
				used[i] = true
				rec(append(cur, i), used)
				used[i] = false
			}
		}
	}
	rec(nil, make([]bool, n))
	return out
}

// canonicalKey returns the state's canonical identity: the least
// encoding over the configured permutations, with versions normalized.
// The returned string is freshly allocated (it is used as a map key).
func (e *encoder) canonicalKey(v *machine) string {
	e.best = e.best[:0]
	for i, perm := range e.perms {
		e.buf = e.encode(v, perm, true, e.buf[:0])
		if i == 0 || lessBytes(e.buf, e.best) {
			e.best = append(e.best[:0], e.buf...)
		}
	}
	return string(e.best)
}

// fingerprint hashes the identity encoding (no permutation, raw
// versions) — the per-step value a Trace records and Replay recomputes.
func (e *encoder) fingerprint(v *machine) uint64 {
	e.buf = e.encode(v, identityPerm(v.cfg.Caches), false, e.buf[:0])
	// FNV-1a.
	h := uint64(14695981039346656037)
	for _, b := range e.buf {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func lessBytes(a, b []byte) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// encode walks the machine in a fixed order. perm[pos] is the concrete
// cache index occupying canonical position pos; normalize relabels
// versions in first-encounter order.
func (e *encoder) encode(v *machine, perm []int, normalize bool, buf []byte) []byte {
	n := v.cfg.Caches
	for pos, k := range perm {
		e.inv[k] = pos
	}
	// Version relabeling state. Raw versions are bounded by the number of
	// write issues, which is bounded by n × RefsPerProc; size generously.
	if normalize {
		need := 1
		for k := 0; k < n; k++ {
			need += v.rm.Issued(k)
		}
		if cap(e.vmap) < need+1 {
			e.vmap = make([]uint64, need+1)
		}
		e.vmap = e.vmap[:need+1]
		for i := range e.vmap {
			e.vmap[i] = versionUnmapped
		}
		e.vmap[0] = 0
	}
	var nextLabel uint64
	ver := func(raw uint64) uint64 {
		if !normalize {
			return raw
		}
		if e.vmap[raw] == versionUnmapped {
			nextLabel++
			e.vmap[raw] = nextLabel
		}
		return e.vmap[raw]
	}
	mapCache := func(c int) uint64 {
		if c < 0 || c >= n {
			return uint64(255) // DMA / "no exemption" sentinel
		}
		return uint64(e.inv[c])
	}
	u := func(x uint64) {
		buf = binary.AppendUvarint(buf, x)
	}
	b8 := func(x bool) {
		if x {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	emitMsg := func(m msgLike) {
		u(uint64(m.Kind))
		u(uint64(m.Block))
		u(mapCache(m.Cache))
		u(uint64(m.RW))
		b8(m.Ok)
		u(ver(m.Data))
	}

	buf = append(buf, byte(v.cfg.Protocol))
	// Per-cache sections in canonical position order.
	for pos := 0; pos < n; pos++ {
		k := perm[pos]
		b8(v.rm.Busy(k))
		u(uint64(v.rm.Issued(k)))
		s := v.agents[k].Snapshot()
		b8(s.Busy)
		if s.Busy {
			u(uint64(s.Block))
			b8(s.Write)
			b8(s.AwaitingGrant)
			u(ver(s.WriteVersion))
		}
		store := v.agents[k].Store()
		for b := 0; b < v.cfg.Blocks; b++ {
			f := store.Lookup(addr.Block(b))
			if f == nil {
				b8(false)
				continue
			}
			b8(true)
			b8(f.Modified)
			b8(f.Exclusive)
			u(ver(f.Data))
		}
	}
	// Controller and committed-version sections per block.
	for b := 0; b < v.cfg.Blocks; b++ {
		cb := v.ctl.BlockSnapshot(addr.Block(b))
		u(uint64(cb.State))
		// Remap the full-map presence bitmask through the permutation.
		var holders uint64
		for k := 0; k < n; k++ {
			if cb.Holders&(1<<uint(k)) != 0 {
				holders |= 1 << uint(e.inv[k])
			}
		}
		u(holders)
		b8(cb.Modified)
		u(ver(cb.Mem))
		b8(cb.Active)
		if cb.Active {
			emitMsg(asMsgLike(cb.ActiveCmd))
		}
		b8(cb.Waiting)
		b8(cb.AwaitingAck)
		u(uint64(len(cb.Stashed)))
		for _, p := range cb.Stashed {
			u(mapCache(p.Cache))
			u(ver(p.Data))
		}
		u(uint64(len(cb.Queued)))
		for _, m := range cb.Queued {
			emitMsg(asMsgLike(m))
		}
		u(ver(v.currentOf(addr.Block(b))))
	}
	// Network queues in canonical pair order: canonical node pos → node
	// id through the permutation (the controller node is fixed).
	top := v.top
	node := func(pos int) network.NodeID {
		if pos < n {
			return top.CacheNode(perm[pos])
		}
		return top.CtrlNode(0)
	}
	for s := 0; s <= n; s++ {
		for d := 0; d <= n; d++ {
			q := v.rm.Pending(node(s), node(d))
			u(uint64(len(q)))
			for _, m := range q {
				emitMsg(asMsgLike(m))
			}
		}
	}
	return buf
}

// msgLike is the subset of msg.Message the encoder reads, decoupled so
// emitMsg has one shape for queued, active and in-flight messages. The
// Txn field is deliberately dropped: transaction ids are tracing
// bookkeeping with no protocol effect, and including them would (like
// raw versions) keep bisimilar states distinct forever.
type msgLike struct {
	Kind  uint8
	Block addr.Block
	Cache int
	RW    uint8
	Ok    bool
	Data  uint64
}

func asMsgLike(m msg.Message) msgLike {
	return msgLike{
		Kind: uint8(m.Kind), Block: m.Block, Cache: m.Cache,
		RW: uint8(m.RW), Ok: m.Ok, Data: m.Data,
	}
}

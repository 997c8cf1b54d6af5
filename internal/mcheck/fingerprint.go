package mcheck

import (
	"encoding/binary"

	"twobit/internal/addr"
	"twobit/internal/msg"
	"twobit/internal/network"
	"twobit/internal/system"
)

// encoder serializes a machine's observable state into a canonical byte
// string — the state's identity for deduplication. It walks the caches,
// the controller and the network in a fixed order; each cache agent and
// the controller write their own protocol state into it through
// proto.StateEncoder, which it implements. Scratch buffers are reused
// across calls; one encoder serves the whole exploration.
//
// Two normalizations make the reachable graph close over executions that
// differ only in bookkeeping:
//
//   - Write versions are globally unique counters, so raw values grow
//     without bound. The protocols never compare versions — they only
//     move them — so two states with the same equality pattern are
//     bisimilar: versions are relabeled in first-encounter order of the
//     encoding walk (0, the initial-memory version, stays 0).
//   - The caches are interchangeable (see Config.Symmetric). With
//     symmetry enabled the encoder emits the lexicographically least
//     encoding over all cache-index permutations; every permuted field
//     (per-cache sections, cache indices inside messages, full-map
//     presence bits, network pair order) is mapped consistently.
type encoder struct {
	perms [][]int  // all cache permutations (or just identity)
	inv   []int    // concrete cache index → canonical position, this walk
	vmap  []uint64 // raw version → canonical label, this walk
	label uint64   // the last label handed out, this walk
	norm  bool     // relabel versions, this walk
	buf   []byte   // the current encoding
	best  []byte   // scratch: least encoding so far
}

const versionUnmapped = ^uint64(0)

// protocolTag leads every encoding. The values predate the admission of
// full-map+E, classical and software and are kept, so fingerprints
// recorded before then still replay.
var protocolTag = [...]byte{
	system.TwoBit: 0, system.FullMap: 1, system.Duplication: 2,
	system.FullMapExclusive: 3, system.Classical: 4, system.Software: 5,
}

func newEncoder(cfg Config) *encoder {
	e := &encoder{inv: make([]int, cfg.Caches)}
	if cfg.Symmetric() {
		e.perms = permutations(cfg.Caches)
	} else {
		e.perms = [][]int{identityPerm(cfg.Caches)}
	}
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
		e.encode(v, perm, true)
		if i == 0 || lessBytes(e.buf, e.best) {
			e.best = append(e.best[:0], e.buf...)
		}
	}
	return string(e.best)
}

// fingerprint hashes the identity encoding (no permutation, raw
// versions) — the per-step value a Trace records and Replay recomputes.
func (e *encoder) fingerprint(v *machine) uint64 {
	e.encode(v, identityPerm(v.cfg.Caches), false)
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

// encode walks the machine into e.buf in a fixed order. perm[pos] is the
// concrete cache index occupying canonical position pos; normalize
// relabels versions in first-encounter order.
func (e *encoder) encode(v *machine, perm []int, normalize bool) {
	n := v.cfg.Caches
	for pos, k := range perm {
		e.inv[k] = pos
	}
	e.buf, e.label, e.norm = e.buf[:0], 0, normalize
	// Raw versions are bounded by the number of write issues, which is
	// bounded by the references issued; size generously.
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

	e.buf = append(e.buf, protocolTag[v.cfg.Protocol])
	// Per-cache sections in canonical position order.
	for _, k := range perm {
		e.Bool(v.rm.Busy(k))
		e.Uint(uint64(v.rm.Issued(k)))
		v.rm.EncodeAgent(k, e)
		store := v.store(k)
		for b := 0; b < v.cfg.Blocks; b++ {
			f := store.Lookup(addr.Block(b))
			e.Bool(f != nil)
			if f != nil {
				e.Bool(f.Modified)
				e.Bool(f.Exclusive)
				e.Version(f.Data)
			}
		}
	}
	// Controller and committed-version sections per block.
	for b := 0; b < v.cfg.Blocks; b++ {
		v.rm.EncodeBlock(addr.Block(b), e)
		e.Version(v.currentOf(addr.Block(b)))
	}
	// Network queues in canonical pair order: canonical node pos → node
	// id through the permutation (the controller node is fixed).
	node := func(pos int) network.NodeID {
		if pos < n {
			return v.top.CacheNode(perm[pos])
		}
		return v.top.CtrlNode(0)
	}
	for s := 0; s <= n; s++ {
		for d := 0; d <= n; d++ {
			q := v.rm.Pending(node(s), node(d))
			e.Uint(uint64(len(q)))
			for _, m := range q {
				e.Msg(m)
			}
		}
	}
}

// Uint implements proto.StateEncoder.
func (e *encoder) Uint(x uint64) { e.buf = binary.AppendUvarint(e.buf, x) }

// Bool implements proto.StateEncoder.
func (e *encoder) Bool(x bool) {
	if x {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Version implements proto.StateEncoder: a raw version, or its label
// when the walk normalizes.
func (e *encoder) Version(raw uint64) {
	if e.norm {
		if e.vmap[raw] == versionUnmapped {
			e.label++
			e.vmap[raw] = e.label
		}
		raw = e.vmap[raw]
	}
	e.Uint(raw)
}

// Cache implements proto.StateEncoder: the cache's canonical position, or
// a sentinel for an index naming no cache (DMA, "no exemption").
func (e *encoder) Cache(k int) {
	if k < 0 || k >= len(e.inv) {
		e.Uint(255)
		return
	}
	e.Uint(uint64(e.inv[k]))
}

// Holders implements proto.StateEncoder: a presence bitmask remapped
// through the permutation.
func (e *encoder) Holders(mask uint64) {
	var out uint64
	for k, pos := range e.inv {
		if mask&(1<<uint(k)) != 0 {
			out |= 1 << uint(pos)
		}
	}
	e.Uint(out)
}

// Msg implements proto.StateEncoder. It encodes every field of the
// message; the data version goes through Version, since raw versions
// would keep bisimilar states distinct forever.
func (e *encoder) Msg(m msg.Message) {
	e.Uint(uint64(m.Kind))
	e.Uint(uint64(m.Block))
	e.Cache(m.Cache)
	e.Uint(uint64(m.RW))
	e.Bool(m.Ok)
	e.Version(m.Data)
}

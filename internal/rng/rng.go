// Package rng provides a small, fast, deterministic pseudo-random number
// generator (PCG-32) with splittable streams.
//
// The simulator must be reproducible: a run with the same configuration and
// seed must produce bit-identical results regardless of Go version or
// platform. math/rand's generators are stable in practice but their
// higher-level helpers have changed across releases, so the simulator owns
// its generator. PCG-32 (O'Neill 2014, pcg32_random_r) is tiny, passes
// statistical test batteries far beyond what a cache simulator needs, and
// supports independent streams via the increment parameter.
package rng

// PCG is a PCG-32 generator (64-bit state, 32-bit output).
// The zero value is not useful; construct with New.
type PCG struct {
	state uint64
	inc   uint64 // stream selector; always odd
}

// New returns a generator seeded with seed on stream stream.
// Distinct streams are statistically independent sequences.
func New(seed, stream uint64) *PCG {
	p := &PCG{inc: stream<<1 | 1}
	p.Uint32()
	p.state += seed
	p.Uint32()
	return p
}

// Reseed restarts p in place, exactly as New(seed, stream) would have
// constructed it — the allocation-free form for pooled components whose
// Reset must restore a freshly-seeded generator.
func (p *PCG) Reseed(seed, stream uint64) {
	p.state = 0
	p.inc = stream<<1 | 1
	p.Uint32()
	p.state += seed
	p.Uint32()
}

// Split derives a new, independent generator from p. The child's seed and
// stream are drawn from p, so splitting is itself deterministic.
func (p *PCG) Split() *PCG {
	hi := uint64(p.Uint32())
	lo := uint64(p.Uint32())
	st := uint64(p.Uint32())
	return New(hi<<32|lo, st)
}

// Uint32 returns the next 32 bits from the stream.
func (p *PCG) Uint32() uint32 {
	old := p.state
	p.state = old*6364136223846793005 + p.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns the next 64 bits from the stream.
func (p *PCG) Uint64() uint64 {
	return uint64(p.Uint32())<<32 | uint64(p.Uint32())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (p *PCG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	bound := uint32(n)
	m := uint64(p.Uint32()) * uint64(bound)
	// Lemire: the rejection threshold -bound % bound is below bound, so a
	// low word at or above bound is accepted without dividing.
	if uint32(m) < bound {
		threshold := -bound % bound
		for uint32(m) < threshold {
			m = uint64(p.Uint32()) * uint64(bound)
		}
	}
	return int(m >> 32)
}

// Float64 returns a uniform float64 in [0, 1).
func (p *PCG) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability prob (clamped to [0, 1]).
func (p *PCG) Bool(prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	return p.Float64() < prob
}

// Perm returns a uniform random permutation of [0, n).
func (p *PCG) Perm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

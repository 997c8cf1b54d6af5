//go:build race

package sim

// RaceEnabled reports whether the binary was built with -race. The race
// detector allocates on its own, so tests that pin an allocation count
// (the ZeroAlloc floors here, in network and in obs) skip when it is set.
const RaceEnabled = true

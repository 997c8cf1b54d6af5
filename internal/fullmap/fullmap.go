// Package fullmap is the baseline the paper compares against: the full
// distributed map of Censier & Feautrier (§2.4.2), in which each memory
// block carries an n+1-bit tag — one presence bit per cache plus a
// modified bit. Because the directory knows exactly which caches hold
// copies, every coherence command is directed (PURGE, INV); no broadcasts
// are ever needed. The transactions themselves are the two-bit scheme's,
// so the baseline is a core.Policy, not a controller.
//
// With exclusive set the controller additionally grants the Yen–Fu local
// state (§2.4.3): a read miss on an uncached block returns the copy
// exclusively, and the cache may later modify it without consulting the
// global table. The directory pessimistically marks such blocks modified,
// so a future miss always queries the (possibly still clean) owner — the
// standard resolution of the synchronization problems [10] leaves open.
package fullmap

import (
	"twobit/internal/core"
	"twobit/internal/directory"
)

// Policy returns the full-map directory policy for core.New.
func Policy(exclusive bool) core.Policy {
	return core.Policy{
		Holders: func(blocks, caches int) core.HolderStore {
			return directory.NewFullMap(blocks, caches)
		},
		Exclusive: exclusive,
	}
}

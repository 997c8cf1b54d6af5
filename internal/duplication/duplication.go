// Package duplication is Tang's scheme (§2.4.1): a single central memory
// controller keeps a duplicate copy of every cache's directory and
// consults all of them to determine a block's global state. Knowledge is
// exact, so all commands are directed like the full map's; the cost is the
// centralization the paper criticizes — one controller serves every block,
// searches n directories per command, and (per the published design's
// simplicity assumptions) services one command at a time. All of that is a
// core.Policy over the duplicate-tag store.
package duplication

import (
	"twobit/internal/core"
	"twobit/internal/directory"
)

// Policy returns the central duplicate-directory policy for core.New,
// which requires a single-module topology under it.
func Policy() core.Policy {
	return core.Policy{
		Holders: func(_, caches int) core.HolderStore {
			return directory.NewDupTagStore(caches)
		},
		Central: true,
	}
}

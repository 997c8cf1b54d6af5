// Package msg defines the control commands and data transfers exchanged by
// processor-cache pairs and memory controllers.
//
// The core of the vocabulary is Table 3-1 of the paper (REQUEST, MREQUEST,
// EJECT, BROADINV, BROADQUERY, MGRANTED and the put/get data transfers).
// The same Message struct also carries the commands needed by the baseline
// protocols the paper surveys: the full-map scheme's directed PURGE and
// INV, the classical scheme's write-through and broadcast invalidation, and
// the write-once bus scheme's bus transactions.
package msg

import (
	"fmt"

	"twobit/internal/addr"
)

// Kind identifies a command or data transfer.
type Kind uint8

// Command kinds. The comment on each gives the paper's notation.
const (
	KindInvalid Kind = iota

	// Cache → controller commands (Table 3-1, P_i–K_i column).
	KindRequest  // REQUEST(k,a,rw): read/write miss service request
	KindMRequest // MREQUEST(k,a): write hit on previously unmodified block
	KindEject    // EJECT(k,olda,wb): replacement notification, wb ∈ {read,write}
	KindPut      // put(b,a): block data from a cache to the controller

	// Controller → cache commands.
	KindBroadInv   // BROADINV(a,k): invalidate a everywhere except cache k
	KindBroadQuery // BROADQUERY(a,rw): ask the unknown owner of a to put it
	KindMGranted   // MGRANTED(k,y|n): answer to MREQUEST
	KindMAck       // cache's confirmation that an MGRANTED(k,true) took effect
	KindGet        // get(k,a): block data from the controller to cache k

	// Full-map (n+1-bit) directory commands: the directory knows exactly
	// which caches hold a copy, so these are directed, not broadcast.
	KindPurge // PURGE(a,i,rw): directed equivalent of BROADQUERY
	KindInv   // INV(a,i): directed invalidation of cache i's copy

	// Classical (write-through broadcast) scheme commands.
	KindWriteThrough // store forwarded to memory on every write
	KindInvAll       // invalidation broadcast to every other cache
	KindInvAck       // cache acknowledges an InvAll (write completion gate)

	// Write-once (Goodman) bus transactions; every cache snoops these.
	KindBusRead      // read miss on the bus
	KindBusWrite     // write miss on the bus (obtain exclusive copy)
	KindBusWriteOnce // first write to a Valid block: word write-through
	KindBusFlush     // dirty block supplied/written back on the bus

	// Software (static) scheme: uncached access to a shared block.
	KindUncachedRead
	KindUncachedWrite

	numKinds // sentinel for validity checks
)

var kindNames = [...]string{
	KindInvalid:       "INVALID",
	KindRequest:       "REQUEST",
	KindMRequest:      "MREQUEST",
	KindEject:         "EJECT",
	KindPut:           "put",
	KindBroadInv:      "BROADINV",
	KindBroadQuery:    "BROADQUERY",
	KindMGranted:      "MGRANTED",
	KindMAck:          "MACK",
	KindGet:           "get",
	KindPurge:         "PURGE",
	KindInv:           "INV",
	KindWriteThrough:  "WRITETHROUGH",
	KindInvAll:        "INVALL",
	KindInvAck:        "INVACK",
	KindBusRead:       "BUSREAD",
	KindBusWrite:      "BUSWRITE",
	KindBusWriteOnce:  "BUSWRITEONCE",
	KindBusFlush:      "BUSFLUSH",
	KindUncachedRead:  "UNCACHEDREAD",
	KindUncachedWrite: "UNCACHEDWRITE",
}

// String returns the paper's name for the command kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is a defined command kind other than KindInvalid.
func (k Kind) Valid() bool { return k > KindInvalid && k < numKinds }

// IsData reports whether the message is a data transfer (italic entries in
// Table 3-1) rather than a control command.
func (k Kind) IsData() bool {
	switch k {
	case KindPut, KindGet, KindBusFlush:
		return true
	default:
		return false
	}
}

// RW distinguishes the read and write flavors of REQUEST, EJECT,
// BROADQUERY and PURGE.
type RW uint8

const (
	Read  RW = iota // rw = "read"
	Write           // rw = "write"
)

// String returns "read" or "write".
func (rw RW) String() string {
	if rw == Write {
		return "write"
	}
	return "read"
}

// Message is one command or data transfer on the interconnection network.
//
// A single struct covers every protocol; fields that a given Kind does not
// use are zero. Messages are passed by value: they are small and must not
// alias state between components. The fields go widest first, so a message
// is 32 bytes: three words, then the three one-byte fields in a fourth.
type Message struct {
	Block addr.Block // a: the block the command concerns
	Cache int        // k (or i): the initiating or exempted cache index
	Data  uint64     // data version carried by put/get/flush transfers
	Kind  Kind
	RW    RW   // read/write flavor where applicable
	Ok    bool // MGRANTED verdict (y|n)
}

// String renders the message in (approximately) the paper's notation.
func (m Message) String() string {
	switch m.Kind {
	case KindRequest:
		return fmt.Sprintf("REQUEST(%d,%s,%s)", m.Cache, m.Block, m.RW)
	case KindMRequest:
		return fmt.Sprintf("MREQUEST(%d,%s)", m.Cache, m.Block)
	case KindEject:
		return fmt.Sprintf("EJECT(%d,%s,%s)", m.Cache, m.Block, m.RW)
	case KindPut:
		return fmt.Sprintf("put(%s,v%d)", m.Block, m.Data)
	case KindBroadInv:
		return fmt.Sprintf("BROADINV(%s,%d)", m.Block, m.Cache)
	case KindBroadQuery:
		return fmt.Sprintf("BROADQUERY(%s,%s)", m.Block, m.RW)
	case KindMGranted:
		return fmt.Sprintf("MGRANTED(%d,%v)", m.Cache, m.Ok)
	case KindGet:
		return fmt.Sprintf("get(%d,%s,v%d)", m.Cache, m.Block, m.Data)
	case KindPurge:
		return fmt.Sprintf("PURGE(%s,%d,%s)", m.Block, m.Cache, m.RW)
	case KindInv:
		return fmt.Sprintf("INV(%s,%d)", m.Block, m.Cache)
	default:
		return fmt.Sprintf("%s(%s,cache=%d)", m.Kind, m.Block, m.Cache)
	}
}

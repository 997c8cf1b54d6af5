// Package livesim is a second, independently written implementation of the
// two-bit protocol that runs on real concurrency: every processor-cache
// pair and every memory controller is a goroutine, and the interconnection
// network is a set of channels (which, with one goroutine per node,
// preserve exactly the per-(source,destination) FIFO order the protocol
// assumes). It exists to cross-validate the deterministic simulator: the
// same §3.2 protocol, the same §3.2.5 race resolutions, exercised under
// the Go scheduler's nondeterminism and the race detector.
//
// The controller services one command at a time (§3.2.5 option 1), which a
// single goroutine gives for free; commands that arrive while a
// transaction waits for data are buffered and replayed, with the queued-
// MREQUEST deletion implemented over that buffer.
package livesim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"twobit/internal/addr"
	"twobit/internal/msg"
	"twobit/internal/obs"
)

// Config sizes the live machine.
type Config struct {
	Procs       int
	Modules     int
	CacheBlocks int // per-cache capacity (fully associative)
	ChanDepth   int // inbox buffering; defaults to 1024

	// Obs attaches observability counters mirroring the deterministic
	// simulator's names ("cache<k>/refs", "ctrl<j>/broadcasts",
	// "ctrl<j>/dir_to_*", ...), so the two implementations can be
	// compared counter for counter. Every counter is registered in New,
	// before any node goroutine starts, and is thereafter written by
	// exactly one node goroutine; snapshot the recorder only after Run
	// returns. Counters only — the live machine has no global sim time,
	// so windowed series and event tracing stay off.
	Obs *obs.Recorder
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Procs < 1 || c.Modules < 1 || c.CacheBlocks < 1 {
		return fmt.Errorf("livesim: Procs=%d Modules=%d CacheBlocks=%d must all be ≥ 1",
			c.Procs, c.Modules, c.CacheBlocks)
	}
	return nil
}

// Machine is the live multiprocessor.
type Machine struct {
	cfg    Config
	caches []*cacheNode
	ctrls  []*ctrlNode
	oracle *liveOracle

	// inflight counts the messages sent and not yet done with: each is
	// counted from its send until its handler returns or a controller
	// discards it. Handlers send only while their own message is counted,
	// so once the processors have finished, zero is final.
	inflight atomic.Int64

	// Violations found by the oracle (read after Run returns).
	mu         sync.Mutex
	violations []error
}

// New assembles the machine (goroutines start in Run).
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ChanDepth == 0 {
		cfg.ChanDepth = 1024
	}
	m := &Machine{cfg: cfg, oracle: newLiveOracle()}
	for j := 0; j < cfg.Modules; j++ {
		m.ctrls = append(m.ctrls, newCtrlNode(m, j))
	}
	for k := 0; k < cfg.Procs; k++ {
		m.caches = append(m.caches, newCacheNode(m, k))
	}
	return m, nil
}

func (m *Machine) ctrlFor(b addr.Block) *ctrlNode {
	return m.ctrls[int(uint64(b))%m.cfg.Modules]
}

// send queues cmd in inbox, counting it in flight.
func (m *Machine) send(inbox chan msg.Message, cmd msg.Message) {
	m.inflight.Add(1)
	inbox <- cmd
}

// done marks one message handled or discarded.
func (m *Machine) done() { m.inflight.Add(-1) }

func (m *Machine) violation(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.violations = append(m.violations, err)
}

// Run starts all nodes, executes fn(proc, access) on one goroutine per
// processor, shuts the machine down, and returns the first coherence
// violation, if any. access performs one blocking memory reference and
// returns the version observed (for reads) or written.
func (m *Machine) Run(fn func(proc int, access func(ref addr.Ref) uint64)) error {
	for _, c := range m.ctrls {
		go c.loop()
	}
	for _, c := range m.caches {
		go c.loop()
	}
	var wg sync.WaitGroup
	for p := 0; p < m.cfg.Procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			fn(p, func(ref addr.Ref) uint64 { return m.caches[p].access(ref) })
		}(p)
	}
	wg.Wait()
	// Quiesce: fire-and-forget traffic — write-backs, MACKs, invalidations
	// and queries queued for a cache — may still be in flight. Nothing may
	// stop until all of it is handled: a cache that quit with a BROADINV
	// in its inbox would keep a copy the directory no longer counts.
	for m.inflight.Load() != 0 {
		runtime.Gosched()
	}
	for _, c := range m.caches {
		close(c.quit)
	}
	for _, c := range m.ctrls {
		close(c.quit)
	}
	for _, c := range m.caches {
		<-c.stopped
	}
	for _, c := range m.ctrls {
		<-c.stopped
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.violations) > 0 {
		return fmt.Errorf("livesim: %d violations, first: %w", len(m.violations), m.violations[0])
	}
	return nil
}

// CheckInvariants verifies the quiescent-state invariants after Run: at
// most one modified copy per block, directory state consistent with the
// cache contents.
func (m *Machine) CheckInvariants() error {
	for b, st := range m.snapshotStates() {
		copies, modified := 0, 0
		for _, c := range m.caches {
			if f, ok := c.frames[b]; ok {
				copies++
				if f.modified {
					modified++
				}
			}
		}
		if modified > 1 {
			return fmt.Errorf("livesim: %v has %d modified copies", b, modified)
		}
		switch st {
		case stAbsent:
			if copies != 0 {
				return fmt.Errorf("livesim: %v Absent with %d copies", b, copies)
			}
		case stPresent1:
			if copies > 1 || modified != 0 {
				return fmt.Errorf("livesim: %v Present1 with %d copies (%d modified)", b, copies, modified)
			}
		case stPresentM:
			if copies != 1 || modified != 1 {
				return fmt.Errorf("livesim: %v PresentM with %d copies (%d modified)", b, copies, modified)
			}
		default: // Present*
			if modified != 0 {
				return fmt.Errorf("livesim: %v Present* with a modified copy", b)
			}
		}
	}
	return nil
}

func (m *Machine) snapshotStates() map[addr.Block]uint8 {
	out := make(map[addr.Block]uint8)
	for _, c := range m.ctrls {
		for b, st := range c.states {
			out[b] = st
		}
	}
	return out
}

// liveOracle checks the coherence condition the 1984 protocol actually
// guarantees under arbitrary message delays: writes to a block are totally
// ordered (the controller serializes them), every observed value is a
// committed one, and each processor observes a block's versions in
// non-decreasing commit order (never an older value after a newer one, and
// never older than its own last write). The protocol is *not*
// linearizable: MGRANTED is sent as soon as the BROADINV broadcast leaves
// the controller, so a remote cache may briefly read its stale copy after
// the writer has proceeded — the deterministic simulator's strict oracle
// only holds there because its network delivers the grant and the
// invalidations with equal latency. See DESIGN.md.
type liveOracle struct {
	mu       sync.Mutex
	seq      uint64
	seqs     map[addr.Block]map[uint64]uint64
	latest   map[addr.Block]uint64
	nextV    uint64
	lastSeen map[procBlock]uint64 // per (proc, block): commit seq last observed
}

type procBlock struct {
	proc  int
	block addr.Block
}

func newLiveOracle() *liveOracle {
	return &liveOracle{
		seqs:     make(map[addr.Block]map[uint64]uint64),
		latest:   make(map[addr.Block]uint64),
		lastSeen: make(map[procBlock]uint64),
	}
}

func (o *liveOracle) newVersion() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.nextV++
	return o.nextV
}

// commit records that proc's version v became current for block b.
func (o *liveOracle) commit(proc int, b addr.Block, v uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.seq++
	mm := o.seqs[b]
	if mm == nil {
		mm = make(map[uint64]uint64)
		o.seqs[b] = mm
	}
	mm[v] = o.seq
	o.latest[b] = v
	o.lastSeen[procBlock{proc, b}] = o.seq
}

// observeRead validates one completed load by proc.
func (o *liveOracle) observeRead(proc int, b addr.Block, got uint64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	var gs uint64
	if got != 0 {
		s, ok := o.seqs[b][got]
		if !ok {
			return fmt.Errorf("load of %v observed uncommitted version %d", b, got)
		}
		gs = s
	}
	key := procBlock{proc, b}
	if prev := o.lastSeen[key]; gs < prev {
		return fmt.Errorf("coherence violation on %v: proc %d observed version %d (commit #%d) after already observing commit #%d",
			b, proc, got, gs, prev)
	}
	o.lastSeen[key] = gs
	return nil
}

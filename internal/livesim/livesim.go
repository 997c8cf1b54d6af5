// Package livesim is a second, independently written implementation of the
// two-bit protocol that runs on real concurrency: every processor-cache
// pair and every memory controller is a goroutine, and the interconnection
// network is a set of channels (which, with one goroutine per node,
// preserve exactly the per-(source,destination) FIFO order the protocol
// assumes). It exists to cross-validate the deterministic simulator: the
// same §3.2 protocol, the same §3.2.5 race resolutions, exercised under
// the Go scheduler's nondeterminism and the race detector.
//
// Its protocol handlers are its own; what it shares with the simulator is
// the definition of correct. Every load and store goes through the same
// oracle.Oracle (in its non-strict, coherence mode), and Run ends with the
// same quiescent rule, directory.CheckTwoBit.
package livesim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"twobit/internal/addr"
	"twobit/internal/directory"
	"twobit/internal/msg"
	"twobit/internal/obs"
	"twobit/internal/oracle"
)

// inboxDepth is every node's inbox buffering. A send to a full inbox
// blocks its sender's loop until the receiver drains it; 1024 is far more
// than this package's machines have in flight to one node.
const inboxDepth = 1024

// Config sizes the live machine.
type Config struct {
	Procs       int
	Modules     int
	CacheBlocks int // per-cache capacity (fully associative)
	Blocks      int // the address space: blocks [0, Blocks), interleaved over the modules

	// Obs attaches counters under the deterministic simulator's names
	// ("cache<k>/refs", "ctrl<j>/dir_to_*", ...), so the two compare
	// counter for counter. Each is registered in New and written by one
	// node goroutine only: snapshot the recorder after Run returns.
	// Counters only — the live machine has no global sim time.
	Obs *obs.Recorder
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Procs < 1 || c.Modules < 1 || c.CacheBlocks < 1 || c.Blocks < 1 {
		return fmt.Errorf("livesim: Procs=%d Modules=%d CacheBlocks=%d Blocks=%d must all be ≥ 1",
			c.Procs, c.Modules, c.CacheBlocks, c.Blocks)
	}
	return nil
}

// Machine is the live multiprocessor.
type Machine struct {
	cfg    Config
	space  addr.Space
	caches []*cacheNode
	ctrls  []*ctrlNode

	// inflight counts, in its low bits, the messages sent and not yet
	// done with: each is counted from its send until its handler returns
	// or a controller discards it. Its bits from heldShift up count how
	// many of those are held: deferred by a controller behind a
	// transaction still open. One word, so that one load reads both at
	// one instant. Handlers send only while their own message is counted,
	// and a held command waits for a reply, so once no processor can
	// issue, every message in flight held is final.
	inflight atomic.Int64
	versions atomic.Uint64 // store versions, dense as the oracle requires
	// quit stops every node loop once nothing is in flight; nodes counts
	// the loops still running.
	quit  chan struct{}
	nodes sync.WaitGroup
	// running counts the processors whose fn has not returned; wedged
	// releases those parked on a reply once Run finds none can come.
	running atomic.Int64
	wedged  chan struct{}

	// dropBroadInv makes every cache ignore BROADINV, and dropMAck
	// every cache withhold its MACK(true): seeded defects that wedge the
	// machine, for the watchdog's tests.
	dropBroadInv, dropMAck bool

	// mu guards the oracle and its violations while the machine runs.
	mu         sync.Mutex
	oracle     *oracle.Oracle
	violations []error
}

// New assembles the machine (goroutines start in Run).
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:    cfg,
		space:  addr.Space{Blocks: cfg.Blocks, Modules: cfg.Modules},
		quit:   make(chan struct{}),
		wedged: make(chan struct{}),
		oracle: oracle.New(cfg.Blocks),
	}
	for j := 0; j < cfg.Modules; j++ {
		m.ctrls = append(m.ctrls, newCtrlNode(m, j))
	}
	for k := 0; k < cfg.Procs; k++ {
		m.caches = append(m.caches, newCacheNode(m, k))
	}
	return m, nil
}

func (m *Machine) ctrlFor(b addr.Block) *ctrlNode { return m.ctrls[b.Module(m.cfg.Modules)] }

// send queues cmd in inbox, counting it in flight.
func (m *Machine) send(inbox chan msg.Message, cmd msg.Message) {
	m.inflight.Add(1)
	inbox <- cmd
}

// done marks one message handled or discarded.
func (m *Machine) done() { m.inflight.Add(-1) }

// heldShift places the held count in the inflight word.
const heldShift = 32

// settled reports whether every message in flight is held, and how many
// are held.
func (m *Machine) settled() (held int64, ok bool) {
	v := m.inflight.Load()
	held = v >> heldShift
	return held, v-held<<heldShift == held
}

// check makes one oracle call on proc's behalf and records the
// violation it reports, if any.
func (m *Machine) check(proc int, call func(*oracle.Oracle) error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := call(m.oracle); err != nil {
		m.violations = append(m.violations, fmt.Errorf("proc %d: %w", proc, err))
	}
}

// ErrWedged is the error Run returns when the machine can make no more
// progress: every processor still running waits on a controller reply
// and every message in flight is held behind a transaction whose reply
// is not in flight, so no reply can ever come.
var ErrWedged = errors.New("livesim: machine wedged")

// wedgePoll is how often Run looks for a wedge while processors run.
const wedgePoll = time.Millisecond

// Run starts all nodes, executes fn(proc, access) on one goroutine per
// processor, shuts the machine down, and returns the first coherence
// violation the oracle found, if any, or else the first block that breaks
// the quiescent two-bit rule. access performs one blocking memory
// reference and returns the version observed (for reads) or written.
//
// A machine that wedges (see ErrWedged) is stopped: Run returns an error
// wrapping ErrWedged that names each waiting cache, its block and its
// controller's open command, and every later access returns 0 at once,
// so each fn runs out and no goroutine is left behind.
func (m *Machine) Run(fn func(proc int, access func(ref addr.Ref) uint64)) error {
	m.nodes.Add(len(m.ctrls) + len(m.caches))
	for _, c := range m.ctrls {
		go c.loop()
	}
	for _, c := range m.caches {
		go c.loop()
	}
	m.running.Store(int64(len(m.caches)))
	var procs sync.WaitGroup
	procs.Add(len(m.caches))
	for p, c := range m.caches {
		go func() {
			defer procs.Done()
			defer m.running.Add(-1)
			fn(p, c.access)
		}()
	}
	finished := make(chan struct{})
	go func() {
		procs.Wait()
		close(finished)
	}()
	if m.watch(finished) {
		close(m.quit)
		m.nodes.Wait()
		err := m.wedge()
		close(m.wedged)
		<-finished
		return err
	}
	// Quiesce: fire-and-forget traffic — write-backs, MACKs, invalidations
	// and queries queued for a cache — may still be in flight. Nothing may
	// stop until all of it is handled: a cache that quit with a BROADINV
	// in its inbox would keep a copy the directory no longer counts. What
	// is still held once the rest is handled waits for a reply that no
	// one will send.
	held, ok := m.settled()
	for ; !ok; held, ok = m.settled() {
		runtime.Gosched()
	}
	close(m.quit)
	m.nodes.Wait()
	if held > 0 {
		return m.wedge()
	}
	return m.verdict()
}

// watch waits for the processors to finish, looking for a wedge every
// wedgePoll, and reports whether it found one.
func (m *Machine) watch(finished <-chan struct{}) bool {
	tick := time.NewTicker(wedgePoll)
	defer tick.Stop()
	waits := make([]uint64, len(m.caches))
	for {
		select {
		case <-finished:
			return false
		case <-tick.C:
			if m.stuck(waits) {
				return true
			}
		}
	}
}

// stuck reports whether the machine is wedged. Read in this order — the
// running count, every cache's wait count, the in-flight word, the wait
// counts again — equal odd wait counts on as many caches as processors
// run show every running processor parked on one wait throughout, and
// the in-flight word read meanwhile every message held. That is final
// then: handlers send only while their own message is counted, a held
// command waits for a reply that is not in flight, and no processor is
// free to issue a reference. waits is scratch space, one entry per cache.
func (m *Machine) stuck(waits []uint64) bool {
	running := m.running.Load()
	parked := int64(0)
	for i, c := range m.caches {
		waits[i] = c.waits.Load()
		parked += int64(waits[i] & 1)
	}
	if _, ok := m.settled(); parked == 0 || parked != running || !ok {
		return false
	}
	for i, c := range m.caches {
		if c.waits.Load() != waits[i] {
			return false
		}
	}
	return true
}

// wedge describes the stopped, wedged machine: each waiting cache, the
// block it waits on and what its controller has open, then each
// controller that holds commands behind an open transaction.
func (m *Machine) wedge() error {
	var parts []string
	for _, c := range m.caches {
		if c.pend == nil {
			continue
		}
		blk := c.pend.ref.Block
		ctrl := m.ctrlFor(blk)
		open := "nothing open"
		if ctrl.open.Kind != msg.KindInvalid {
			open = fmt.Sprintf("%v open", ctrl.open)
		}
		parts = append(parts, fmt.Sprintf("cache %d waits on %v, controller %d has %s", c.idx, blk, ctrl.idx, open))
	}
	for _, c := range m.ctrls {
		if c.held > 0 {
			parts = append(parts, fmt.Sprintf("controller %d holds %d commands behind %v", c.idx, c.held, c.open))
		}
	}
	return fmt.Errorf("%w: %s", ErrWedged, strings.Join(parts, "; "))
}

// verdict is the stopped machine's result: the oracle's first violation,
// then each block's controller idle and the block held to the two-bit
// rule. Every goroutine has stopped, so nothing here needs the lock.
func (m *Machine) verdict() error {
	if len(m.violations) > 0 {
		return fmt.Errorf("livesim: %d violations, first: %w", len(m.violations), m.violations[0])
	}
	for b := addr.Block(0); b < addr.Block(m.cfg.Blocks); b++ {
		ctrl := m.ctrlFor(b)
		if ctrl.open.Kind != msg.KindInvalid {
			return fmt.Errorf("livesim: controller %d not quiescent", ctrl.idx)
		}
		copies, modified := 0, 0
		for _, c := range m.caches {
			if f := c.frames[b]; f != nil {
				copies++
				if f.modified {
					modified++
				}
			}
		}
		if err := directory.CheckTwoBit(b, ctrl.state(b), copies, modified); err != nil {
			return fmt.Errorf("livesim: %w", err)
		}
	}
	return nil
}

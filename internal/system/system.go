// Package system assembles complete simulated multiprocessors in the
// organization of Figure 3-1 — n processor-cache pairs and m memory
// controller/module pairs joined by an interconnection network — runs
// workloads through them, verifies coherence with a linearizability
// oracle and protocol-specific invariant checks, and reports the paper's
// metrics (commands received per memory reference, useless commands,
// stolen cache cycles, broadcast counts, network traffic).
package system

import (
	"errors"
	"fmt"
	"io"

	"twobit/internal/addr"
	"twobit/internal/cache"
	"twobit/internal/memory"
	"twobit/internal/network"
	"twobit/internal/obs"
	"twobit/internal/oracle"
	"twobit/internal/proto"
	"twobit/internal/sim"
	"twobit/internal/stats"
	"twobit/internal/workload"
)

// Protocol selects the coherence scheme a machine runs.
type Protocol uint8

const (
	// TwoBit is the paper's contribution (§3): the two-bit global directory
	// with broadcast BROADINV/BROADQUERY.
	TwoBit Protocol = iota
	// FullMap is the Censier–Feautrier n+1-bit directory (§2.4.2).
	FullMap
	// FullMapExclusive is FullMap plus the Yen–Fu local state (§2.4.3).
	FullMapExclusive
	// Classical is the broadcast write-through scheme (§2.3).
	Classical
	// Duplication is Tang's central cache-directory duplication (§2.4.1).
	Duplication
	// WriteOnce is Goodman's bus scheme (§2.5); it forces NetKind Bus.
	WriteOnce
	// Software is the static scheme (§2.2): shared blocks are not cached.
	Software
)

// String names the protocol.
func (p Protocol) String() string {
	if int(p) < len(protocols) {
		return protocols[p].name
	}
	return fmt.Sprintf("Protocol(%d)", uint8(p))
}

// NetKind selects the interconnection network.
type NetKind uint8

const (
	// CrossbarNet is the ideal point-to-point network.
	CrossbarNet NetKind = iota
	// BusNet is the single shared snooping bus.
	BusNet
	// OmegaNet is the blocking multistage network.
	OmegaNet
)

// String names the network kind.
func (k NetKind) String() string {
	switch k {
	case CrossbarNet:
		return "crossbar"
	case BusNet:
		return "bus"
	case OmegaNet:
		return "omega"
	}
	return fmt.Sprintf("NetKind(%d)", uint8(k))
}

// Config describes a machine.
type Config struct {
	Protocol Protocol
	Procs    int // n: processor-cache pairs
	Modules  int // memory modules (with one controller each)

	CacheSets   int
	CacheAssoc  int
	CachePolicy cache.ReplacementPolicy
	// DuplicateDirectory enables the §4.4 parallel-controller enhancement
	// at every cache.
	DuplicateDirectory bool

	Net        NetKind
	NetLatency sim.Time // crossbar latency / omega hop time
	NetJitter  sim.Time // max random extra delay per message (CrossbarNet only)
	BusCycle   sim.Time // bus occupancy per transaction (BusNet only)

	Lat  proto.Latencies
	Mode proto.ConcurrencyMode

	// TranslationBufferSize enables the §4.4 owner cache (TwoBit only).
	TranslationBufferSize int
	// CoreHooks injects deliberate two-bit protocol defects — the model
	// checker's -bug runs (test-only; nil in production). TwoBit only.
	CoreHooks *proto.BugHooks
	// DisableCleanEject drops EJECT(·,·,"read"), the paper's optional part
	// of the replacement protocol.
	DisableCleanEject bool

	// DMA adds uncached I/O devices (TwoBit and FullMap protocols only).
	DMA DMAConfig

	Seed uint64
	// Oracle enables the coherence/linearizability checker. It rides on
	// every reference; `go run ./bench` prices it per workload as
	// system.oracle_ns_per_ref (EXPERIMENTS.md, E-oracle).
	Oracle bool
	// TraceWriter, when non-nil, receives a log of every network message —
	// a protocol debugging aid.
	TraceWriter io.Writer
	// Obs, when non-nil, records sim-time events and per-component
	// metrics for this run (see internal/obs). Recording is passive: a
	// machine with and without a recorder produces identical Results
	// (modulo the Results.Obs snapshot itself).
	Obs *obs.Recorder
}

// DefaultConfig returns a ready-to-run configuration for n processors:
// four memory modules on a crossbar, or what the protocol requires instead
// (one module under a central controller, the bus for a bus protocol).
func DefaultConfig(protocol Protocol, procs int) Config {
	cfg := Config{
		Protocol:   protocol,
		Procs:      procs,
		Modules:    4,
		CacheSets:  32,
		CacheAssoc: 4,
		Net:        CrossbarNet,
		NetLatency: 4,
		BusCycle:   4,
		Lat:        proto.DefaultLatencies(),
		Mode:       proto.PerBlock,
		Seed:       1,
		Oracle:     true,
	}
	if spec, err := protocol.spec(); err == nil {
		if spec.central {
			cfg.Modules = 1
		}
		if spec.bus {
			cfg.Net = BusNet
		}
	}
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	spec, err := c.Protocol.spec()
	if err != nil {
		return err
	}
	if c.Procs < 1 {
		return fmt.Errorf("system: Procs must be ≥ 1, got %d", c.Procs)
	}
	if c.Procs > 64 {
		return fmt.Errorf("system: Procs must be ≤ 64 (directory word width), got %d", c.Procs)
	}
	if c.Modules < 1 {
		return fmt.Errorf("system: Modules must be ≥ 1, got %d", c.Modules)
	}
	if c.CacheSets < 1 || c.CacheAssoc < 1 {
		return fmt.Errorf("system: cache geometry %dx%d invalid", c.CacheSets, c.CacheAssoc)
	}
	if spec.bus && c.Net != BusNet {
		return fmt.Errorf("system: the %s protocol requires the bus network", spec.name)
	}
	if spec.central && c.Modules != 1 {
		return fmt.Errorf("system: the %s protocol is centralized; set Modules = 1", spec.name)
	}
	if c.TranslationBufferSize > 0 && !spec.twoBit {
		return errors.New("system: translation buffer applies to the two-bit protocol only")
	}
	if c.CoreHooks != nil && !spec.twoBit {
		return errors.New("system: core hooks apply to the two-bit protocol only")
	}
	if err := c.DMA.Validate(); err != nil {
		return err
	}
	if c.DMA.Devices > 0 && !spec.dma {
		return fmt.Errorf("system: DMA devices are supported by the directory protocols, not %s", spec.name)
	}
	return nil
}

// Machine is an assembled multiprocessor.
type Machine struct {
	cfg    Config
	gen    workload.Generator
	kernel *sim.Kernel
	net    network.Network
	topo   proto.Topology
	space  addr.Space
	spec   *protocolSpec // cfg.Protocol's row of the assembly table

	caches []agent
	ctrls  []controller
	dmas   []*dmaDevice
	oracle *oracle.Oracle
	strict bool // strict (linearizability) oracle mode; see oracle.Oracle

	// drivers holds one procDriver per processor, grown on first use and
	// reused across runs (and across resets of a pooled machine), so
	// issuing a processor's reference stream allocates nothing after the
	// first run.
	drivers []*procDriver

	nextVersion uint64
	completed   int
	ran         bool // Run was called since construction or the last reset
	issuedRefs  uint64
	errs        []error
	refDone     func(p int) // ReplayMachine's hook, run as each reference completes; kept across resets

	latencies       stats.Histogram // per-reference latency, cycles
	sharedLatencies stats.Histogram // latency of shared references only

	// mems are the memory modules by index, and views the quiescence
	// check's flat reads of them and their directories.
	mems  []*memory.Module
	views []moduleView
	// copies is the quiescence check's index of every valid cache frame,
	// kept across runs; a Runner lends its own to the machines it pools.
	copies copyIndex

	obsLatency *obs.Histogram // "sys/ref_latency_cycles" (nil when Obs off)
}

// New assembles a machine for cfg running gen. The address space is sized
// from the generator.
func New(cfg Config, gen workload.Generator) (*Machine, error) {
	return newMachine(cfg, gen, nil, nil, nil)
}

// newMachine is New with an optional kernel, reusable oracle (nil
// allocates a fresh one when cfg.Oracle is set) and network override,
// which the choice machines use to substitute a delivery-choice network
// sized by the topology. It builds the graph of cfg's shape, then applies
// cfg's values through reset, exactly as a pool hit does.
func newMachine(cfg Config, gen workload.Generator, kernel *sim.Kernel, o *oracle.Oracle, newNet func(proto.Topology) network.Network) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	blocks := gen.Blocks()
	if blocks < 1 {
		return nil, fmt.Errorf("system: generator spans %d blocks", blocks)
	}
	if kernel == nil {
		kernel = &sim.Kernel{}
	}
	if cfg.Oracle && o == nil {
		o = oracle.New(blocks)
	}
	m := &Machine{
		cfg:    cfg,
		kernel: kernel,
		topo:   proto.Topology{Caches: cfg.Procs, Modules: cfg.Modules, DMA: cfg.DMA.Devices},
		space:  addr.Space{Blocks: blocks, Modules: cfg.Modules},
		spec:   &protocols[cfg.Protocol], // Validate vouched for it
		caches: make([]agent, cfg.Procs),
	}
	// The graph is built without the recorder: it is a value, attached by
	// reset below in the registration order a pool hit uses.
	m.cfg.Obs = nil
	switch {
	case newNet != nil:
		m.net = newNet(m.topo)
	case cfg.Net == BusNet:
		m.net = network.NewBus(m.kernel, cfg.BusCycle, cfg.NetLatency)
	case cfg.Net == OmegaNet:
		m.net = network.NewOmega(m.kernel, m.topo.Nodes(), maxTime(1, cfg.NetLatency))
	default:
		m.net = network.NewJitterCrossbar(m.kernel, cfg.NetLatency, cfg.NetJitter, cfg.Seed^0xA5A5)
	}
	if cfg.TraceWriter != nil {
		m.net = &traceNet{inner: m.net, m: m}
	}
	m.spec.build(m)
	m.viewModules()
	for d := 0; d < cfg.DMA.Devices; d++ {
		m.dmas = append(m.dmas, newDMADevice(m, d))
	}
	m.reset(cfg, gen, o)
	return m, nil
}

// machineShape is the structural identity of a machine: the parameters
// that decide what gets constructed and wired (component counts, array
// sizes, network topology, attachment graph, trace wrapper). Two configs
// with equal shapes differ only in value parameters — seeds, latencies,
// policies, oracle on/off, recorder, trace writer — which Machine.reset
// re-derives without rebuilding.
type machineShape struct {
	protocol Protocol
	procs    int
	modules  int
	sets     int
	assoc    int
	blocks   int
	net      NetKind
	dma      int
	tb       bool // translation buffer present (size > 0)
	traced   bool // the network is wrapped by a trace writer
}

// shapeOf computes the shape of cfg over an address space of blocks
// blocks.
func shapeOf(cfg Config, blocks int) machineShape {
	return machineShape{
		protocol: cfg.Protocol,
		procs:    cfg.Procs,
		modules:  cfg.Modules,
		sets:     cfg.CacheSets,
		assoc:    cfg.CacheAssoc,
		blocks:   blocks,
		net:      cfg.Net,
		dma:      cfg.DMA.Devices,
		tb:       cfg.TranslationBufferSize > 0,
		traced:   cfg.TraceWriter != nil,
	}
}

// reset restores the machine to its freshly-constructed state under cfg,
// which must be validated and shape-equal to the machine's construction
// config (newMachine and the Runner guarantee both). It applies every
// value parameter: the oracle and strict mode, network timing, the trace
// writer, and the recorder with the kernel hook that profiles for it. The
// caller owns the kernel and resets it separately. Without a recorder,
// reset allocates nothing. Reset runs are byte-identical to fresh
// machines — pinned by TestRunnerReuse and the randomized property test.
func (m *Machine) reset(cfg Config, gen workload.Generator, o *oracle.Oracle) {
	m.cfg = cfg
	m.gen = gen
	m.oracle = o
	if o != nil {
		o.Reset(m.space.Blocks)
	}
	// Strict linearizability holds only when invalidations and grants
	// travel with equal delay; the blocking Omega network and the jittered
	// crossbar do not guarantee that, so they get the (still paper-exact)
	// coherence check. See the oracle.Oracle doc.
	m.strict = o != nil && cfg.Net != OmegaNet && cfg.NetJitter == 0
	net := m.net
	if t, ok := net.(*traceNet); ok {
		t.w = cfg.TraceWriter
		net = t.inner
	}
	switch n := net.(type) {
	case *network.Crossbar:
		n.Reset(cfg.NetLatency, cfg.NetJitter, cfg.Seed^0xA5A5)
	case *network.Bus:
		n.Reset(cfg.BusCycle, cfg.NetLatency)
	case *network.Omega:
		n.Reset(maxTime(1, cfg.NetLatency))
	case *choiceNet:
		n.reset()
	default:
		panic(fmt.Sprintf("system: cannot reset network %T", net))
	}
	// The recorder's registration order is pinned by the obs goldens: the
	// kernel series, the machine's, the network's, then each component's
	// as resetComponents reaches it.
	var hook sim.Hook // an untyped nil without a recorder: no per-event call
	var names func(network.NodeID) string
	m.obsLatency = nil
	if rec := cfg.Obs; rec != nil {
		rec.SetTime(m.kernel.Now()) // the hook advances it from the first event on
		hook = obs.NewKernelProfile(rec)
		m.obsLatency = rec.Histogram("sys/ref_latency_cycles", 8)
		names = m.trackName
	}
	m.kernel.SetHook(hook)
	m.net.Observe(cfg.Obs, names)
	m.resetComponents()
	for _, d := range m.dmas {
		d.reset()
	}
	m.nextVersion = 0
	m.completed = 0
	m.ran = false
	m.issuedRefs = 0
	m.errs = m.errs[:0]
	m.latencies.Reset()
	m.sharedLatencies.Reset()
}

// trackName maps a network node id to its observability track name,
// following the topology's layout: caches first, then controllers, then
// DMA devices.
func (m *Machine) trackName(id network.NodeID) string {
	if k, ok := m.topo.CacheIndex(id); ok {
		return fmt.Sprintf("cache%d", k)
	}
	j := int(id) - m.topo.Caches
	if j < m.topo.Modules {
		return fmt.Sprintf("ctrl%d", j)
	}
	return fmt.Sprintf("dma%d", j-m.topo.Modules)
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

// Kernel exposes the machine's clock (read-only use intended).
func (m *Machine) Kernel() *sim.Kernel { return m.kernel }

// Oracle returns the linearizability oracle, or nil when disabled.
func (m *Machine) Oracle() *oracle.Oracle { return m.oracle }

// CacheSide returns cache k's protocol agent.
func (m *Machine) CacheSide(k int) proto.CacheSide { return m.caches[k] }

// commitHook returns the oracle hook (nil when the oracle is off).
func (m *Machine) commitHook() proto.CommitFunc {
	if m.oracle == nil {
		return nil
	}
	return m.oracle.Commit
}

// cacheConfig builds the cache geometry for cache k.
func (m *Machine) cacheConfig(k int) cache.Config {
	return cache.Config{
		Sets:               m.cfg.CacheSets,
		Assoc:              m.cfg.CacheAssoc,
		Policy:             m.cfg.CachePolicy,
		DuplicateDirectory: m.cfg.DuplicateDirectory,
		Seed:               m.cfg.Seed ^ uint64(k)<<32,
	}
}

// ErrMachineRan is returned by a second Run on one machine: its counters,
// histograms and completion tally are spent. Build a new machine, or use a
// Runner, which resets pooled machines between runs.
var ErrMachineRan = errors.New("system: machine already ran — build a new one or use a Runner")

// Run drives every processor through refsPerProc references and returns
// the aggregated results. It returns an error if the simulation deadlocks,
// a load violates coherence, or a protocol invariant fails at quiescence.
// A machine runs once.
func (m *Machine) Run(refsPerProc int) (Results, error) {
	if refsPerProc < 1 {
		return Results{}, fmt.Errorf("system: refsPerProc must be ≥ 1, got %d", refsPerProc)
	}
	if m.ran {
		return Results{}, ErrMachineRan
	}
	m.ran = true
	for p := 0; p < m.cfg.Procs; p++ {
		m.issue(p, refsPerProc)
	}
	for _, d := range m.dmas {
		d.issue(refsPerProc)
	}
	want := m.cfg.Procs + len(m.dmas)
	m.kernel.Run()
	if m.completed != want {
		return Results{}, fmt.Errorf("system: deadlock: %d of %d processors/devices finished after %d events",
			m.completed, want, m.kernel.Processed())
	}
	if len(m.errs) > 0 {
		return Results{}, fmt.Errorf("system: %d coherence violations, first: %w", len(m.errs), m.errs[0])
	}
	if err := m.checkInvariants(); err != nil {
		return Results{}, fmt.Errorf("system: invariant violation at quiescence: %w", err)
	}
	return m.collect(refsPerProc), nil
}

// issue chains one processor's references through a procDriver: each new
// reference is issued when the previous one completes. Drivers are
// created on first use and reused by later runs — issue() reinitializes
// every per-reference field, so a reused driver behaves identically to a
// fresh one.
func (m *Machine) issue(p, remaining int) {
	for len(m.drivers) <= p {
		m.drivers = append(m.drivers, newProcDriver(m, len(m.drivers), 0))
	}
	d := m.drivers[p]
	d.remaining = remaining
	d.issue()
}

// procDriver drives one simulated processor through its reference
// stream. The per-reference state lives in the driver and the completion
// callback is bound once at construction, so issuing a reference
// allocates nothing — the driver itself is the only allocation, one per
// processor per run.
type procDriver struct {
	m           *Machine
	p           int
	remaining   int
	ref         addr.Ref
	version     uint64
	issueLatest uint64
	issuedAt    sim.Time
	done        func(uint64) // complete, bound once
}

func newProcDriver(m *Machine, p, remaining int) *procDriver {
	d := &procDriver{m: m, p: p, remaining: remaining}
	d.done = d.complete
	return d
}

// issue hands the processor's next reference to its cache agent. When
// transaction spans are enabled the agent opens the reference's span in
// Access, at this same tick, and closes it when done runs — so span
// end-to-end latencies cover exactly the issuedAt → complete interval
// measured below.
func (d *procDriver) issue() {
	m := d.m
	ref := m.gen.Next(d.p)
	if int(ref.Block) >= m.space.Blocks {
		panic(fmt.Sprintf("system: generator produced %v beyond space of %d blocks", ref.Block, m.space.Blocks))
	}
	m.issuedRefs++
	d.ref = ref
	d.version = 0
	if ref.Write {
		m.nextVersion++
		d.version = m.nextVersion
	}
	d.issueLatest = 0
	if m.oracle != nil {
		d.issueLatest = m.oracle.Latest(ref.Block)
	}
	d.issuedAt = m.kernel.Now()
	m.caches[d.p].Access(ref, d.version, d.done)
}

func (d *procDriver) complete(got uint64) {
	m := d.m
	lat := uint64(m.kernel.Now() - d.issuedAt)
	m.latencies.Observe(lat)
	m.obsLatency.Observe(lat)
	if d.ref.Shared {
		m.sharedLatencies.Observe(lat)
	}
	if m.oracle != nil {
		var err error
		if d.ref.Write {
			err = m.oracle.NoteWrite(d.p, d.ref.Block, d.version)
		} else {
			err = m.oracle.CheckLoad(d.p, d.ref.Block, d.issueLatest, got, m.strict)
		}
		if err != nil {
			m.errs = append(m.errs, fmt.Errorf("proc %d: %w", d.p, err))
		}
	}
	if m.refDone != nil {
		m.refDone(d.p)
	}
	if d.remaining > 1 {
		d.remaining--
		d.issue()
	} else {
		m.completed++
	}
}

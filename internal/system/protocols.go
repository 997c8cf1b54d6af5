package system

import (
	"fmt"
	"math/bits"

	"twobit/internal/addr"
	"twobit/internal/cache"
	"twobit/internal/classical"
	"twobit/internal/core"
	"twobit/internal/directory"
	"twobit/internal/memory"
	"twobit/internal/network"
	"twobit/internal/proto"
	"twobit/internal/sim"
	"twobit/internal/software"
	"twobit/internal/writeonce"
)

// agent and controller are what the machine needs of a protocol's two
// sides beyond running them: Reset restores a pooled component to its
// freshly-constructed state under a config of the same shape, the
// controller answers the quiescence checks, and both write their protocol
// state for the model checker (see ReplayMachine).
type agent interface {
	proto.CacheSide
	Reset(proto.AgentConfig)
	EncodeState(proto.StateEncoder)
}

type controller interface {
	proto.MemSide
	Reset(proto.CtrlConfig)
	Quiescent() bool
	EncodeBlock(proto.StateEncoder, addr.Block)
}

// protocolSpec is one row of the assembly table: everything the machine
// knows about a protocol. Names, validation, defaults, assembly, reset and
// the quiescence check all read it; nothing else in the package asks which
// protocol is running.
type protocolSpec struct {
	name string
	// central: one controller serves every block (Modules must be 1).
	central bool
	// bus: the protocol transacts on the shared snooping bus (Net must be
	// BusNet).
	bus bool
	// dma: the controllers service uncached I/O devices.
	dma bool
	// twoBit: the directory is the paper's two-bit map, which alone takes
	// the §4.4 translation buffer and the model checker's bug hooks.
	twoBit bool
	// exclusive: the cache agents run the Yen–Fu local state (§2.4.3).
	exclusive bool
	// build constructs and attaches the cache agents, in index order, then
	// the controllers.
	build func(m *Machine)
	// invariant is the protocol's own per-block check at quiescence, on
	// top of the protocol-independent ones, given the directory of b's
	// module and b's local index in it; nil for none.
	invariant func(m *Machine, b addr.Block, dir core.Flat, li int, copies []copyView) error
}

// protocols is the assembly table, indexed by Protocol.
var protocols = [...]protocolSpec{
	TwoBit: {name: "two-bit", dma: true, twoBit: true,
		build: perModule(proto.NewCacheAgent, directoryCtrl(core.Policy{})), invariant: twoBitInvariant},
	FullMap: {name: "full-map", dma: true,
		build: perModule(proto.NewCacheAgent, directoryCtrl(core.FullMap(false))), invariant: exactInvariant},
	FullMapExclusive: {name: "full-map+E", dma: true, exclusive: true,
		build: perModule(proto.NewCacheAgent, directoryCtrl(core.FullMap(true))), invariant: exactInvariant},
	Classical: {name: "classical",
		build: perModule(classical.NewAgent, classical.New), invariant: writeThroughInvariant},
	Duplication: {name: "duplication", central: true,
		build: perModule(proto.NewCacheAgent, directoryCtrl(core.Duplication())), invariant: exactInvariant},
	WriteOnce: {name: "write-once", bus: true,
		build: onBus, invariant: writeOnceInvariant},
	Software: {name: "software",
		build: perModule(software.NewAgent, software.New)},
}

// spec returns p's row of the table.
func (p Protocol) spec() (*protocolSpec, error) {
	if int(p) >= len(protocols) {
		return nil, fmt.Errorf("system: unknown protocol %v", p)
	}
	return &protocols[p], nil
}

// perModule is the assembly every protocol but the bus one shares: one
// agent per cache from newAgent, then one controller per memory module
// from newCtrl, each attaching itself to the network as it is built.
func perModule[A agent, C controller](
	newAgent func(proto.AgentConfig, *sim.Kernel, network.Network, *cache.Cache) A,
	newCtrl func(proto.CtrlConfig, *sim.Kernel, network.Network, *memory.Module) C,
) func(*Machine) {
	return func(m *Machine) {
		for k := range m.caches {
			m.caches[k] = newAgent(m.agentConfig(k), m.kernel, m.net, cache.New(m.cacheConfig(k)))
		}
		m.ctrls = make([]controller, m.cfg.Modules)
		m.mems = make([]*memory.Module, m.cfg.Modules)
		for j := range m.ctrls {
			m.mems[j] = memory.NewModule(m.space, j, m.cfg.Lat.Memory)
			m.ctrls[j] = newCtrl(m.ctrlConfig(j), m.kernel, m.net, m.mems[j])
		}
	}
}

// directoryCtrl is the controller constructor of a directory protocol:
// the one core.Controller, which pol specializes.
func directoryCtrl(pol core.Policy) func(proto.CtrlConfig, *sim.Kernel, network.Network, *memory.Module) *core.Controller {
	return func(cfg proto.CtrlConfig, k *sim.Kernel, net network.Network, mem *memory.Module) *core.Controller {
		return core.New(cfg, pol, k, net, mem)
	}
}

// onBus assembles Goodman's bus machine, the one protocol perModule does
// not fit: its memory side is a single writeonce.System over every module
// and the bus itself, which the agents transact through instead of
// exchanging messages — so the system is built first and nothing attaches.
func onBus(m *Machine) {
	bus, ok := unwrapBus(m.net)
	if !ok {
		panic("system: write-once requires the bus network")
	}
	sys := writeonce.NewSystem(m.ctrlConfig(0), m.kernel, bus)
	for k := range m.caches {
		m.caches[k] = writeonce.NewAgent(sys, m.agentConfig(k), cache.New(m.cacheConfig(k)))
	}
	m.ctrls = []controller{sys}
	m.mems = sys.Modules()
}

// agentConfig and ctrlConfig derive component configurations from the
// machine's current config, for construction and for reset.
func (m *Machine) agentConfig(k int) proto.AgentConfig {
	return proto.AgentConfig{
		Index:             k,
		Topo:              m.topo,
		Lat:               m.cfg.Lat,
		Commit:            m.commitHook(),
		DisableCleanEject: m.cfg.DisableCleanEject,
		ExclusiveGrants:   m.spec.exclusive,
		BiasFilter:        m.cfg.DuplicateDirectory, // reuse the filter knob
		Obs:               m.cfg.Obs,
	}
}

func (m *Machine) ctrlConfig(j int) proto.CtrlConfig {
	return proto.CtrlConfig{
		Module:                j,
		Topo:                  m.topo,
		Space:                 m.space,
		Lat:                   m.cfg.Lat,
		Commit:                m.commitHook(),
		Mode:                  m.cfg.Mode,
		TranslationBufferSize: m.cfg.TranslationBufferSize,
		Obs:                   m.cfg.Obs,
		Hooks:                 m.cfg.CoreHooks,
	}
}

// resetComponents restores every cache, agent and controller to its
// freshly-constructed state under m's current (already updated) config,
// without re-attaching anything to the network. The machine shape —
// protocol, topology, address space, cache geometry — must be unchanged
// since construction; value parameters (latencies, seeds, policies) are
// re-derived from m.cfg.
func (m *Machine) resetComponents() {
	for k, a := range m.caches {
		a.Store().Reset(m.cacheConfig(k))
		a.Reset(m.agentConfig(k))
	}
	for j, c := range m.ctrls {
		c.Reset(m.ctrlConfig(j))
	}
}

// ctrlFor returns the controller owning block b (the bus machine's one
// system owns them all).
func (m *Machine) ctrlFor(b addr.Block) controller { return m.ctrls[b.Module(len(m.ctrls))] }

// moduleView is one memory module and its directory as the quiescence
// check reads them: flat arrays indexed by a block's local index in the
// module, fixed at assembly (every component's Reset reuses its arrays).
type moduleView struct {
	mem []uint64  // memory's versions
	dir core.Flat // the directory; zero for a controller without one
}

// viewModules builds m.views from the memory modules the protocol's
// build recorded in m.mems and the controllers that own them (ctrlFor's
// mapping: the bus machine's one system owns every module).
func (m *Machine) viewModules() {
	m.views = make([]moduleView, len(m.mems))
	for j, mem := range m.mems {
		m.views[j].mem = mem.Versions()
		if c, ok := m.ctrls[j%len(m.ctrls)].(*core.Controller); ok {
			m.views[j].dir = c.Flat()
		}
	}
}

// checkInvariants is the quiescence check: every controller idle, then
// for every block, in ascending order, the protocol-independent facts
// against main memory and the protocol's own invariant. Blocks are
// interleaved across the modules, so the walk steps the module with each
// block and the local index with each round of modules.
func (m *Machine) checkInvariants() error {
	for j, c := range m.ctrls {
		if !c.Quiescent() {
			return fmt.Errorf("controller %d not quiescent", j)
		}
	}
	idx := m.indexCopies()
	inv := m.spec.invariant
	j, li, i := 0, 0, 0
	for blk := 0; blk < m.space.Blocks; blk++ {
		b := addr.Block(blk)
		n := i
		for n < len(idx) && idx[n].block() == b {
			n++
		}
		copies := idx[i:n]
		i = n
		v := &m.views[j]
		// With no copies, memory's version is all the data there is to
		// check: most blocks stop at this comparison.
		if mem := v.mem[li]; len(copies) != 0 || m.oracle != nil && mem != m.oracle.Latest(b) {
			if err := m.checkDataInvariants(b, copies, mem); err != nil {
				return err
			}
		}
		if inv != nil {
			if err := inv(m, b, v.dir, li, copies); err != nil {
				return err
			}
		}
		if j++; j == len(m.views) {
			j, li = 0, li+1
		}
	}
	return nil
}

// twoBitInvariant holds block b's two-bit global state to
// directory.CheckTwoBit, the rule the goroutine witness checks too.
func twoBitInvariant(_ *Machine, b addr.Block, dir core.Flat, li int, copies []copyView) error {
	modified := 0
	for _, cv := range copies {
		if cv.modified() {
			modified++
		}
	}
	return directory.CheckTwoBit(b, dir.States.Get(li), len(copies), modified)
}

// exactInvariant verifies block b's entry in an exact directory — the
// n+1-bit map or the duplicated cache directories — against the caches.
func exactInvariant(m *Machine, b addr.Block, dir core.Flat, li int, copies []copyView) error {
	mask, mbit := dir.Entry(li)
	holders := bits.OnesCount64(mask)
	// Every copy must be a known holder (exactness of the map). Extra
	// presence bits can only exist when clean ejects are disabled.
	for _, cv := range copies {
		if mask>>cv.cacheIdx()&1 == 0 {
			return fmt.Errorf("%v: cache %d holds a copy the map does not record", b, cv.cacheIdx())
		}
	}
	if !m.cfg.DisableCleanEject && holders != len(copies) {
		return fmt.Errorf("%v: map records %d holders but %d copies exist", b, holders, len(copies))
	}
	if mbit {
		if holders != 1 {
			return fmt.Errorf("%v: m bit set with %d holders", b, holders)
		}
		// With the Yen–Fu extension the m bit is pessimistic: the sole
		// holder may hold the block Exclusive (clean). Otherwise the
		// copy must be modified.
		if len(copies) == 1 && !copies[0].modified() && !copies[0].exclusive() {
			return fmt.Errorf("%v: m bit set but the copy is plainly clean", b)
		}
	}
	return nil
}

// writeThroughInvariant: a classical cache never holds a dirty frame.
func writeThroughInvariant(_ *Machine, b addr.Block, _ core.Flat, _ int, copies []copyView) error {
	for _, cv := range copies {
		if cv.modified() {
			return fmt.Errorf("%v: write-through cache %d holds a dirty frame", b, cv.cacheIdx())
		}
	}
	return nil
}

// writeOnceInvariant: a Reserved copy is the only copy.
func writeOnceInvariant(_ *Machine, b addr.Block, _ core.Flat, _ int, copies []copyView) error {
	reserved := 0
	for _, cv := range copies {
		if cv.exclusive() && !cv.modified() {
			reserved++
		}
	}
	if reserved > 1 {
		return fmt.Errorf("%v: %d Reserved copies", b, reserved)
	}
	if reserved == 1 && len(copies) != 1 {
		return fmt.Errorf("%v: Reserved copy coexists with %d others", b, len(copies)-1)
	}
	return nil
}

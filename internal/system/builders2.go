package system

import (
	"fmt"

	"twobit/internal/addr"
	"twobit/internal/cache"
	"twobit/internal/classical"
	"twobit/internal/memory"
	"twobit/internal/proto"
	"twobit/internal/software"
	"twobit/internal/writeonce"
)

// classicalBuilder assembles the §2.3 broadcast write-through machine.
type classicalBuilder struct {
	agents []*classical.Agent
	ctrls  []*classical.Controller
	mems   []*memory.Module
}

func classicalAgentConfig(m *Machine, k int) classical.AgentConfig {
	return classical.AgentConfig{
		Index:      k,
		Topo:       m.topo,
		Lat:        m.cfg.Lat,
		BiasFilter: m.cfg.DuplicateDirectory, // reuse the filter knob
	}
}

func classicalCtrlConfig(m *Machine, j int) classical.Config {
	return classical.Config{
		Module: j,
		Topo:   m.topo,
		Space:  m.space,
		Lat:    m.cfg.Lat,
		Commit: m.commitHook(),
	}
}

func (b *classicalBuilder) buildCaches(m *Machine) []proto.CacheSide {
	sides := make([]proto.CacheSide, m.cfg.Procs)
	b.agents = make([]*classical.Agent, m.cfg.Procs)
	for k := 0; k < m.cfg.Procs; k++ {
		store := cache.New(m.cacheConfig(k))
		b.agents[k] = classical.NewAgent(classicalAgentConfig(m, k), m.kernel, m.net, store)
		sides[k] = b.agents[k]
	}
	return sides
}

func (b *classicalBuilder) buildCtrls(m *Machine) []proto.MemSide {
	out := make([]proto.MemSide, m.cfg.Modules)
	b.ctrls = make([]*classical.Controller, m.cfg.Modules)
	b.mems = make([]*memory.Module, m.cfg.Modules)
	for j := 0; j < m.cfg.Modules; j++ {
		mem := memory.NewModule(m.space, j, m.cfg.Lat.Memory)
		c := classical.New(classicalCtrlConfig(m, j), m.kernel, m.net, mem)
		b.mems[j] = mem
		b.ctrls[j] = c
		out[j] = c
	}
	return out
}

func (b *classicalBuilder) reset(m *Machine) {
	for k, a := range b.agents {
		a.Store().Reset(m.cacheConfig(k))
		a.Reset(classicalAgentConfig(m, k))
	}
	for j, c := range b.ctrls {
		b.mems[j].Reset(m.cfg.Lat.Memory)
		c.Reset(classicalCtrlConfig(m, j))
	}
}

func (b *classicalBuilder) checkInvariants(m *Machine) error {
	for j, c := range b.ctrls {
		if !c.Quiescent() {
			return fmt.Errorf("classical controller %d not quiescent", j)
		}
	}
	memV := func(bl addr.Block) uint64 {
		return b.ctrls[bl.Module(m.space.Modules)].MemVersion(bl)
	}
	return checkGenericInvariants(m, memV, func(bl addr.Block, copies []copyView) error {
		for _, cv := range copies {
			if cv.modified() {
				return fmt.Errorf("%v: write-through cache %d holds a dirty frame", bl, cv.cacheIdx())
			}
		}
		return nil
	})
}

// writeOnceBuilder assembles Goodman's bus machine.
type writeOnceBuilder struct {
	sys    *writeonce.System
	agents []*writeonce.Agent
}

func (b *writeOnceBuilder) buildCaches(m *Machine) []proto.CacheSide {
	bus, ok := unwrapBus(m.net)
	if !ok {
		panic("system: write-once requires the bus network")
	}
	b.sys = writeonce.NewSystem(writeonce.Config{
		Topo:   m.topo,
		Space:  m.space,
		Lat:    m.cfg.Lat,
		Commit: m.commitHook(),
	}, m.kernel, bus)
	sides := make([]proto.CacheSide, m.cfg.Procs)
	b.agents = make([]*writeonce.Agent, m.cfg.Procs)
	for k := 0; k < m.cfg.Procs; k++ {
		b.agents[k] = writeonce.NewAgent(b.sys, k, cache.New(m.cacheConfig(k)))
		sides[k] = b.agents[k]
	}
	return sides
}

func (b *writeOnceBuilder) buildCtrls(m *Machine) []proto.MemSide {
	return []proto.MemSide{b.sys}
}

func (b *writeOnceBuilder) reset(m *Machine) {
	b.sys.Reset(writeonce.Config{
		Topo:   m.topo,
		Space:  m.space,
		Lat:    m.cfg.Lat,
		Commit: m.commitHook(),
	})
	for k, a := range b.agents {
		a.Store().Reset(m.cacheConfig(k))
	}
}

func (b *writeOnceBuilder) checkInvariants(m *Machine) error {
	return checkGenericInvariants(m, b.sys.MemVersion, func(bl addr.Block, copies []copyView) error {
		reserved := 0
		for _, cv := range copies {
			if cv.exclusive() && !cv.modified() {
				reserved++
			}
		}
		if reserved > 1 {
			return fmt.Errorf("%v: %d Reserved copies", bl, reserved)
		}
		if reserved == 1 && len(copies) != 1 {
			return fmt.Errorf("%v: Reserved copy coexists with %d others", bl, len(copies)-1)
		}
		return nil
	})
}

// softwareBuilder assembles the §2.2 static machine.
type softwareBuilder struct {
	agents []*software.Agent
	ctrls  []*software.Controller
	mems   []*memory.Module
}

func softwareAgentConfig(m *Machine, k int) software.AgentConfig {
	return software.AgentConfig{
		Index:  k,
		Topo:   m.topo,
		Lat:    m.cfg.Lat,
		Commit: m.commitHook(),
	}
}

func softwareCtrlConfig(m *Machine, j int) software.Config {
	return software.Config{
		Module: j,
		Topo:   m.topo,
		Space:  m.space,
		Lat:    m.cfg.Lat,
		Commit: m.commitHook(),
	}
}

func (b *softwareBuilder) buildCaches(m *Machine) []proto.CacheSide {
	sides := make([]proto.CacheSide, m.cfg.Procs)
	b.agents = make([]*software.Agent, m.cfg.Procs)
	for k := 0; k < m.cfg.Procs; k++ {
		store := cache.New(m.cacheConfig(k))
		b.agents[k] = software.NewAgent(softwareAgentConfig(m, k), m.kernel, m.net, store)
		sides[k] = b.agents[k]
	}
	return sides
}

func (b *softwareBuilder) buildCtrls(m *Machine) []proto.MemSide {
	out := make([]proto.MemSide, m.cfg.Modules)
	b.ctrls = make([]*software.Controller, m.cfg.Modules)
	b.mems = make([]*memory.Module, m.cfg.Modules)
	for j := 0; j < m.cfg.Modules; j++ {
		mem := memory.NewModule(m.space, j, m.cfg.Lat.Memory)
		c := software.New(softwareCtrlConfig(m, j), m.kernel, m.net, mem)
		b.mems[j] = mem
		b.ctrls[j] = c
		out[j] = c
	}
	return out
}

func (b *softwareBuilder) reset(m *Machine) {
	for k, a := range b.agents {
		a.Store().Reset(m.cacheConfig(k))
		a.Reset(softwareAgentConfig(m, k))
	}
	for j, c := range b.ctrls {
		b.mems[j].Reset(m.cfg.Lat.Memory)
		c.Reset(softwareCtrlConfig(m, j))
	}
}

func (b *softwareBuilder) checkInvariants(m *Machine) error {
	memV := func(bl addr.Block) uint64 {
		return b.ctrls[bl.Module(m.space.Modules)].MemVersion(bl)
	}
	return checkGenericInvariants(m, memV, nil)
}

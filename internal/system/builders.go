package system

import (
	"fmt"

	"twobit/internal/cache"
	"twobit/internal/core"
	"twobit/internal/duplication"
	"twobit/internal/fullmap"
	"twobit/internal/memory"
	"twobit/internal/proto"
)

// builderFor returns the builder implementing the given protocol.
func builderFor(p Protocol) (builder, error) {
	switch p {
	case TwoBit:
		return &directoryBuilder{}, nil
	case FullMap:
		return &directoryBuilder{policy: fullmap.Policy(false)}, nil
	case FullMapExclusive:
		return &directoryBuilder{policy: fullmap.Policy(true)}, nil
	case Classical:
		return &classicalBuilder{}, nil
	case Duplication:
		return &directoryBuilder{policy: duplication.Policy()}, nil
	case WriteOnce:
		return &writeOnceBuilder{}, nil
	case Software:
		return &softwareBuilder{}, nil
	}
	return nil, fmt.Errorf("system: unknown protocol %v", p)
}

// directoryBuilder assembles every directory protocol — the paper's
// two-bit scheme (the zero policy), the Censier–Feautrier full map with or
// without the Yen–Fu exclusive state, and Tang's central duplication: the
// shared cache agents in front of one core.Controller per module, which
// the policy specializes.
type directoryBuilder struct {
	policy core.Policy
	agents []*proto.CacheAgent
	ctrls  []*core.Controller
	mems   []*memory.Module
}

// agentConfig and ctrlConfig derive component configurations from the
// machine's current config, shared by construction and reset.
func (b *directoryBuilder) agentConfig(m *Machine, k int) proto.AgentConfig {
	return proto.AgentConfig{
		Index:             k,
		Topo:              m.topo,
		Lat:               m.cfg.Lat,
		DisableCleanEject: m.cfg.DisableCleanEject,
		ExclusiveGrants:   b.policy.Exclusive,
		Commit:            m.commitHook(),
		Obs:               m.cfg.Obs,
	}
}

func (b *directoryBuilder) ctrlConfig(m *Machine, j int) core.Config {
	return core.Config{
		Module:                j,
		Topo:                  m.topo,
		Space:                 m.space,
		Lat:                   m.cfg.Lat,
		Mode:                  m.cfg.Mode,
		TranslationBufferSize: m.cfg.TranslationBufferSize,
		Hooks:                 m.cfg.CoreHooks,
		Commit:                m.commitHook(),
		Obs:                   m.cfg.Obs,
	}
}

func (b *directoryBuilder) buildCaches(m *Machine) []proto.CacheSide {
	b.agents = make([]*proto.CacheAgent, m.cfg.Procs)
	sides := make([]proto.CacheSide, m.cfg.Procs)
	for k := range b.agents {
		store := cache.New(m.cacheConfig(k))
		b.agents[k] = proto.NewCacheAgent(b.agentConfig(m, k), m.kernel, m.net, store)
		sides[k] = b.agents[k]
	}
	return sides
}

func (b *directoryBuilder) buildCtrls(m *Machine) []proto.MemSide {
	out := make([]proto.MemSide, m.cfg.Modules)
	b.ctrls = make([]*core.Controller, m.cfg.Modules)
	b.mems = make([]*memory.Module, m.cfg.Modules)
	for j := range b.ctrls {
		b.mems[j] = memory.NewModule(m.space, j, m.cfg.Lat.Memory)
		b.ctrls[j] = core.New(b.ctrlConfig(m, j), b.policy, m.kernel, m.net, b.mems[j])
		out[j] = b.ctrls[j]
	}
	return out
}

func (b *directoryBuilder) reset(m *Machine) {
	for k, a := range b.agents {
		a.Store().Reset(m.cacheConfig(k))
		a.Reset(b.agentConfig(m, k))
	}
	for j, c := range b.ctrls {
		b.mems[j].Reset(m.cfg.Lat.Memory)
		c.Reset(b.ctrlConfig(m, j))
	}
}

func (b *directoryBuilder) checkInvariants(m *Machine) error {
	for j, c := range b.ctrls {
		if !c.Quiescent() {
			return fmt.Errorf("controller %d not quiescent", j)
		}
	}
	if b.policy.Holders != nil {
		return checkExactInvariants(m, b.ctrls)
	}
	return checkTwoBitInvariants(m, b.ctrls)
}

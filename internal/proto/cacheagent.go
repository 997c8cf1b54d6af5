package proto

import (
	"fmt"

	"twobit/internal/addr"
	"twobit/internal/cache"
	"twobit/internal/msg"
	"twobit/internal/network"
	"twobit/internal/obs"
	"twobit/internal/sim"
)

// Static span names: the reference span opens at Access and closes at
// completion, so the hot path must not build strings.
const (
	refReadName  = "ref read"
	refWriteName = "ref write"
)

func refName(write bool) string {
	if write {
		return refWriteName
	}
	return refReadName
}

// CacheAgent is the cache-side coherence logic shared by the directory
// protocols (two-bit and full map). It implements the P_i–C_i column of
// Table 3-1: it issues REQUEST/MREQUEST/EJECT and the put data transfer,
// and it reacts to BROADINV/INV, BROADQUERY/PURGE, MGRANTED and get. The
// protocols differ only at the controller; the paper makes the same
// observation when it notes that cache-side invalidation logic matches the
// classical solution's.
type CacheAgent struct {
	AgentBase

	// What the outstanding remote transaction awaits (meaningful while
	// Waiting) and when it was issued.
	phase    pendPhase
	issuedAt sim.Time

	rec       *obs.Recorder
	comp      obs.Component  // "cache<k>" trace track
	obsRefs   *obs.Counter   // "cache<k>/refs"
	obsRemote *obs.Histogram // "cache<k>/remote_ref_cycles": issue → finish
	sp        *obs.SpanRecorder

	// Machine-wide windowed rates (every agent folds into the same
	// "sys/*" series) and the per-address contention profiler; all nil
	// unless windows/contention were enabled on the recorder.
	tsRefs     *obs.TimeSeries // "sys/refs"
	tsMisses   *obs.TimeSeries // "sys/misses"
	tsInvs     *obs.TimeSeries // "sys/invalidations"
	tsUpgrades *obs.TimeSeries // "sys/upgrades"
	cont       *obs.ContentionRecorder
}

type pendPhase uint8

const (
	pendAwaitMGrant pendPhase = iota // MREQUEST outstanding
	pendAwaitGet                     // REQUEST outstanding
)

// NewCacheAgent wires a cache agent to the network. store must be a
// freshly constructed cache dedicated to this agent.
func NewCacheAgent(cfg AgentConfig, kernel *sim.Kernel, net network.Network, store *cache.Cache) *CacheAgent {
	a := &CacheAgent{comp: obs.NoComponent}
	if cfg.Obs != nil {
		a.rec = cfg.Obs
		a.comp = cfg.Obs.Component(fmt.Sprintf("cache%d", cfg.Index))
		a.obsRefs = cfg.Obs.Counter(fmt.Sprintf("cache%d/refs", cfg.Index))
		a.obsRemote = cfg.Obs.Histogram(fmt.Sprintf("cache%d/remote_ref_cycles", cfg.Index), 4)
		if ts := cfg.Obs.Windows(); ts != nil {
			a.tsRefs = ts.Series("sys/refs", obs.SeriesSum)
			a.tsMisses = ts.Series("sys/misses", obs.SeriesSum)
			a.tsInvs = ts.Series("sys/invalidations", obs.SeriesSum)
			a.tsUpgrades = ts.Series("sys/upgrades", obs.SeriesSum)
		}
		a.cont = cfg.Obs.Contention()
	}
	a.sp = cfg.Obs.Spans()
	a.Init(cfg, kernel, net, store, a)
	return a
}

// Reset restores the agent to its freshly-constructed state under cfg
// (see AgentBase.Reset). Pooled machines run uninstrumented, so cfg.Obs
// must be nil; instrumented configs rebuild the machine instead.
func (a *CacheAgent) Reset(cfg AgentConfig) {
	if cfg.Obs != nil {
		panic("proto: CacheAgent.Reset with Obs set — rebuild instead")
	}
	a.AgentBase.Reset(cfg)
}

// Access implements CacheSide.
func (a *CacheAgent) Access(ref addr.Ref, writeVersion uint64, done func(uint64)) {
	a.Begin(ref, writeVersion, done)
	a.obsRefs.Inc()
	a.tsRefs.Inc()
	a.cont.Ref(uint64(ref.Block))
	if ref.Write {
		a.cont.Write(uint64(ref.Block), ref.Disp, a.Index)
	}
	a.rec.Begin(a.comp, refName(ref.Write), int64(ref.Block))

	f := a.store.Access(ref.Block)
	if a.sp != nil {
		a.sp.Start(a.Index, spanClass(ref, f, a.ExclusiveGrants), int64(ref.Block))
	}
	if f != nil {
		a.hit(f)
		return
	}
	a.tsMisses.Inc()
	a.miss()
}

// spanClass classifies a reference for latency attribution exactly the
// way hit and miss will dispatch it: the class is decided at issue time
// and survives §3.2.5 conversions (a converted MREQUEST stays a
// write_upgrade — its retry latency belongs to that class, matching the
// paper's T_WH accounting).
func spanClass(ref addr.Ref, f *cache.Frame, exclusiveGrants bool) obs.RefClass {
	switch {
	case !ref.Write && f != nil:
		return obs.ClassReadHit
	case !ref.Write:
		return obs.ClassReadMiss
	case f == nil:
		return obs.ClassWriteMiss
	case f.Modified || (exclusiveGrants && f.Exclusive):
		return obs.ClassWriteHit
	default:
		return obs.ClassWriteUpgrade
	}
}

// Complete shadows the scaffold's so that the completion event lands on
// this agent's Call, which closes the reference span first: every Begin
// emitted by Access is closed by exactly one End.
func (a *CacheAgent) Complete(v uint64) {
	a.Kernel.AfterCall(a.Lat.CacheHit, a, v, 0)
}

// Call implements sim.Caller: the completion event scheduled by Complete.
func (a *CacheAgent) Call(v, _ uint64) {
	a.rec.End(a.comp, refName(a.Ref.Write), int64(a.Ref.Block))
	a.sp.Finish(a.Index)
	a.AgentBase.Call(v, 0)
}

// hit handles the two purely local cases (read hit; write hit on modified)
// plus the MREQUEST and Yen–Fu exclusive-upgrade paths.
func (a *CacheAgent) hit(f *cache.Frame) {
	ref := a.Ref
	if !ref.Write {
		a.Complete(f.Data)
		return
	}
	if f.Modified {
		f.Data = a.Version
		a.Committed(ref.Block, a.Version)
		a.Complete(a.Version)
		return
	}
	if a.ExclusiveGrants && f.Exclusive {
		f.Modified = true
		f.Data = a.Version
		a.Stats.ExclusiveWrites.Inc()
		a.Committed(ref.Block, a.Version)
		a.Complete(a.Version)
		return
	}
	// §3.2.4: write hit on previously unmodified block — MREQUEST.
	a.await(pendAwaitMGrant)
	a.Stats.MRequestsSent.Inc()
	a.tsUpgrades.Inc()
	a.Send(a.Topo.CtrlFor(ref.Block), msg.Message{
		Kind: msg.KindMRequest, Block: ref.Block, Cache: a.Index,
	})
}

// miss performs §3.2.1 replacement, then issues the REQUEST.
func (a *CacheAgent) miss() {
	ref := a.Ref
	a.evictFor(ref.Block)
	rw := msg.Read
	if ref.Write {
		rw = msg.Write
	}
	a.await(pendAwaitGet)
	a.Send(a.Topo.CtrlFor(ref.Block), msg.Message{
		Kind: msg.KindRequest, Block: ref.Block, Cache: a.Index, RW: rw,
	})
}

// await parks the outstanding reference on a remote reply.
func (a *CacheAgent) await(ph pendPhase) {
	a.phase, a.issuedAt, a.Waiting = ph, a.Kernel.Now(), true
}

// evictFor frees a frame for block b, running the §3.2.1 replacement
// protocol on the victim if one must be displaced.
func (a *CacheAgent) evictFor(b addr.Block) {
	victim := a.store.Victim(b)
	if !victim.Valid {
		return
	}
	a.sp.Mark(a.Index, obs.PhaseReplacement)
	olda := victim.Block
	ctrl := a.Topo.CtrlFor(olda)
	if victim.Modified || victim.Exclusive {
		// Case 3: EJECT(k,olda,"write") followed by put(b_k,olda).
		// An Exclusive (Yen–Fu) frame takes this path even when clean: the
		// directory pessimistically believes it modified, and a silent
		// drop would leave a directed PURGE with no one to answer it.
		a.Stats.EvictionsDirty.Inc()
		data := victim.Data
		a.Send(ctrl, msg.Message{Kind: msg.KindEject, Block: olda, Cache: a.Index, RW: msg.Write})
		a.Send(ctrl, msg.Message{Kind: msg.KindPut, Block: olda, Cache: a.Index, Data: data})
	} else {
		// Case 2: EJECT(k,olda,"read"), optional per the paper's note.
		a.Stats.EvictionsClean.Inc()
		if !a.DisableCleanEject {
			a.Send(ctrl, msg.Message{Kind: msg.KindEject, Block: olda, Cache: a.Index, RW: msg.Read})
		}
	}
	a.store.Evict(victim)
}

// Deliver implements network.Handler: reactions to controller commands.
func (a *CacheAgent) Deliver(src network.NodeID, m msg.Message) {
	switch m.Kind {
	case msg.KindBroadInv, msg.KindInv:
		a.handleInvalidate(m)
	case msg.KindBroadQuery, msg.KindPurge:
		a.handleQuery(src, m)
	case msg.KindMGranted:
		a.handleMGranted(m)
	case msg.KindGet:
		a.handleGet(m)
	default:
		panic(fmt.Sprintf("proto: cache %d: unexpected %v", a.Index, m))
	}
}

func (a *CacheAgent) handleInvalidate(m msg.Message) {
	a.Stats.CommandsReceived.Inc()
	if m.Kind == msg.KindBroadInv && m.Cache == a.Index {
		// The exempted cache k; the network normally excludes us, so this
		// is defensive (and free of side effects, per §3.2.4's rationale
		// for the parameter k).
		return
	}
	if f := a.store.Snoop(m.Block); f != nil {
		a.store.Invalidate(m.Block)
		a.Stats.InvalidationsApplied.Inc()
		a.tsInvs.Inc()
		a.cont.Invalidation(uint64(m.Block))
		a.rec.Emit(a.comp, "inv applied", int64(m.Block), 0)
	} else {
		a.Stats.UselessCommands.Inc()
	}
	// §3.2.5: a BROADINV overtaking our MREQUEST acts as MGRANTED(·,false).
	if a.Waiting && a.phase == pendAwaitMGrant && a.Ref.Block == m.Block {
		a.Stats.MRequestsConverted.Inc()
		a.rec.Emit(a.comp, "mreq converted", int64(m.Block), 0)
		// The BROADINV stands in for MGRANTED(·,false): the grant wait
		// ends here, like on the explicit denial path.
		a.sp.Mark(a.Index, obs.PhaseDataReturn)
		a.reissueAsWriteMiss()
	}
}

func (a *CacheAgent) handleQuery(src network.NodeID, m msg.Message) {
	a.Stats.CommandsReceived.Inc()
	f := a.store.Snoop(m.Block)
	if f == nil {
		a.Stats.UselessCommands.Inc()
		return
	}
	// Only the cache holding the block modified (or exclusively, under
	// Yen–Fu grants, since the directory may believe it modified) responds.
	if !f.Modified && !f.Exclusive {
		return
	}
	a.Stats.QueriesAnswered.Inc()
	a.rec.Emit(a.comp, "query answered", int64(m.Block), 0)
	a.Send(src, msg.Message{Kind: msg.KindPut, Block: m.Block, Cache: a.Index, Data: f.Data})
	if m.RW == msg.Read {
		// §3.2.2 case 2: reset the modified bit, keep the (now clean) copy.
		f.Modified = false
		f.Exclusive = false
	} else {
		// §3.2.3 case 3: reset the valid bit instead.
		a.store.Invalidate(m.Block)
	}
}

func (a *CacheAgent) handleMGranted(m msg.Message) {
	if !a.Waiting || a.phase != pendAwaitMGrant || a.Ref.Block != m.Block {
		// Spurious: we already converted on a BROADINV (§3.2.5) or the
		// denial crossed our retry. The conversion path has taken over; a
		// positive grant must be refused so the controller does not record
		// a phantom owner.
		if m.Ok {
			a.sendMAck(m.Block, false)
		}
		return
	}
	a.sp.Mark(a.Index, obs.PhaseDataReturn)
	if !m.Ok {
		a.Stats.Retries.Inc()
		a.rec.Emit(a.comp, "retry", int64(m.Block), 0)
		a.reissueAsWriteMiss()
		return
	}
	f := a.store.Lookup(m.Block)
	if f == nil {
		// Copy vanished without a BROADINV reaching us first; refuse the
		// grant and retry as a write miss. (Cannot occur under per-pair
		// FIFO delivery, kept as a defensive path.)
		a.sendMAck(m.Block, false)
		a.Stats.Retries.Inc()
		a.reissueAsWriteMiss()
		return
	}
	f.Modified = true
	f.Data = a.Version
	a.Committed(m.Block, a.Version)
	a.sendMAck(m.Block, true)
	a.finish(a.Version)
}

// sendMAck confirms (or refuses) an MGRANTED(k,true): the two-bit
// controller commits the PresentM transition only on a positive
// acknowledgement, which closes the phantom-owner race (an MREQUEST whose
// sender was invalidated after the §3.2.5 queue deletion ran).
func (a *CacheAgent) sendMAck(b addr.Block, ok bool) {
	a.Send(a.Topo.CtrlFor(b), msg.Message{
		Kind: msg.KindMAck, Block: b, Cache: a.Index, Ok: ok,
	})
}

// reissueAsWriteMiss converts a pending MREQUEST into a write REQUEST
// (processor j's "next action" in the §3.2.5 scenario). Any local copy is
// dropped first: on the denial path the invalidation may not have reached
// us yet, and keeping the doomed copy while refilling would leave a stale
// duplicate frame behind.
func (a *CacheAgent) reissueAsWriteMiss() {
	a.store.Invalidate(a.Ref.Block)
	a.phase = pendAwaitGet
	a.Send(a.Topo.CtrlFor(a.Ref.Block), msg.Message{
		Kind: msg.KindRequest, Block: a.Ref.Block, Cache: a.Index, RW: msg.Write,
	})
}

func (a *CacheAgent) handleGet(m msg.Message) {
	if !a.Waiting || a.phase != pendAwaitGet || a.Ref.Block != m.Block {
		panic(fmt.Sprintf("proto: cache %d: unsolicited %v", a.Index, m))
	}
	a.sp.Mark(a.Index, obs.PhaseDataReturn)
	// The frame freed at miss time is still free (only gets fill frames,
	// and we have at most one outstanding reference), but run the
	// replacement defensively in case a conflicting block was filled.
	a.evictFor(m.Block)
	victim := a.store.Victim(m.Block)
	a.store.Fill(victim, m.Block, m.Data)
	f := a.store.Lookup(m.Block)
	if a.ExclusiveGrants && m.Ok && !a.Ref.Write {
		f.Exclusive = true
	}
	if a.Ref.Write {
		f.Modified = true
		f.Data = a.Version
		a.Committed(m.Block, a.Version)
		a.finish(a.Version)
		return
	}
	a.finish(m.Data)
}

// finish completes the outstanding reference after the fill latency.
func (a *CacheAgent) finish(v uint64) {
	a.obsRemote.Observe(uint64(a.Kernel.Now() - a.issuedAt))
	a.Waiting = false
	a.Complete(v)
}

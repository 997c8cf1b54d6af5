// Package twobit is a library reproduction of Archibald & Baer, "An
// Economical Solution to the Cache Coherence Problem" (ISCA 1984).
//
// The paper proposes a global cache-coherence directory that stores only
// two bits of state per memory block — Absent, Present1, Present*,
// PresentM — instead of a presence bit per cache, trading broadcasts on
// actual sharing for a directory whose size is independent of the number
// of processors.
//
// The package exposes three layers:
//
//   - A deterministic full-system simulator (NewMachine) of the paper's
//     Figure 3-1 organization: n processor-cache pairs and m memory
//     controller/module pairs on an interconnection network, running any
//     of seven coherence schemes — the two-bit scheme itself, the full-map
//     and Yen–Fu baselines, the classical broadcast write-through scheme,
//     Tang's central directory duplication, Goodman's write-once bus
//     scheme, and the static software scheme. Every run is checked by a
//     linearizability oracle and protocol invariants.
//
//   - The paper's analytical models: Table41 (the §4.2 closed form,
//     reproducing Table 4-1 exactly) and Table42 (a Markov-chain
//     reconstruction of the Dubois–Briggs model behind Table 4-2).
//
//   - Workload generators: the §4.2 private/shared merged reference
//     stream and structured kernels (matrix multiply, producer/consumer,
//     lock contention, task migration).
//
// A quick start:
//
//	cfg := twobit.DefaultConfig(twobit.TwoBit, 8)
//	gen := twobit.NewSharedPrivateWorkload(twobit.SharedPrivateConfig{
//	    Procs: 8, SharedBlocks: 16, Q: 0.05, W: 0.2,
//	    PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 64, ColdBlocks: 512,
//	})
//	m, err := twobit.NewMachine(cfg, gen)
//	res, err := m.Run(100000)
//	fmt.Println(res)
package twobit

import (
	"io"

	"twobit/internal/addr"
	"twobit/internal/mcheck"
	"twobit/internal/memtrace"
	"twobit/internal/model"
	"twobit/internal/obs"
	"twobit/internal/report"
	"twobit/internal/system"
	"twobit/internal/workload"
)

// Block is a main-memory block number, the granularity of caching and
// coherence.
type Block = addr.Block

// Ref is one processor memory reference (the paper's LOAD(a,d) or
// STORE(a,d)); custom Generator implementations produce these.
type Ref = addr.Ref

// Protocol selects the coherence scheme a machine runs.
type Protocol = system.Protocol

// The seven implemented coherence schemes.
const (
	// TwoBit is the paper's contribution (§3).
	TwoBit = system.TwoBit
	// FullMap is the Censier–Feautrier n+1-bit directory (§2.4.2).
	FullMap = system.FullMap
	// FullMapExclusive adds the Yen–Fu local Exclusive state (§2.4.3).
	FullMapExclusive = system.FullMapExclusive
	// Classical is the broadcast write-through solution (§2.3).
	Classical = system.Classical
	// Duplication is Tang's central duplicate-directory scheme (§2.4.1).
	Duplication = system.Duplication
	// WriteOnce is Goodman's bus scheme (§2.5); requires NetKind BusNet.
	WriteOnce = system.WriteOnce
	// Software is the static non-cacheable-shared scheme (§2.2).
	Software = system.Software
)

// NetKind selects the interconnection network model.
type NetKind = system.NetKind

// The three interconnection networks.
const (
	CrossbarNet = system.CrossbarNet
	BusNet      = system.BusNet
	OmegaNet    = system.OmegaNet
)

// Config describes a simulated machine; see DefaultConfig for a working
// baseline.
type Config = system.Config

// Results aggregates a run's measurements in the paper's units.
type Results = system.Results

// Machine is an assembled multiprocessor.
type Machine = system.Machine

// Generator produces per-processor reference streams.
type Generator = workload.Generator

// SharedPrivateConfig parameterizes the §4.2 reference model.
type SharedPrivateConfig = workload.SharedPrivateConfig

// SharingCase holds the §4.2 model parameters for one sharing level.
type SharingCase = model.SharingCase

// DMAConfig adds uncached I/O devices to a machine (see Config.DMA).
type DMAConfig = system.DMAConfig

// DuboisConfig parameterizes the Table 4-2 model reconstruction.
type DuboisConfig = model.DuboisConfig

// DefaultConfig returns a runnable configuration for the given protocol
// and processor count: 4 memory modules, 128-block 4-way caches, crossbar
// network, per-block controller concurrency, oracle checking enabled — or
// what the protocol requires instead (one module for Duplication, the bus
// for WriteOnce).
func DefaultConfig(p Protocol, procs int) Config {
	return system.DefaultConfig(p, procs)
}

// ParseProtocol inverts Protocol.String ("two-bit", "full-map", ...).
func ParseProtocol(name string) (Protocol, error) { return system.ParseProtocol(name) }

// ParseNetKind inverts NetKind.String ("crossbar", "bus", "omega").
func ParseNetKind(name string) (NetKind, error) { return system.ParseNetKind(name) }

// NewMachine assembles a machine running gen under cfg.
func NewMachine(cfg Config, gen Generator) (*Machine, error) {
	return system.New(cfg, gen)
}

// NewSharedPrivateWorkload builds the §4.2 merged reference stream.
func NewSharedPrivateWorkload(cfg SharedPrivateConfig) Generator {
	return workload.NewSharedPrivate(cfg)
}

// NewMatMulWorkload builds the read-sharing matrix-multiply kernel.
func NewMatMulWorkload(procs, aBlocks, bBlocks, cSlicePerProc int) Generator {
	return workload.NewMatMul(procs, aBlocks, bBlocks, cSlicePerProc)
}

// NewProducerConsumerWorkload builds the write-then-read-sharing kernel.
func NewProducerConsumerWorkload(procs, slots int) Generator {
	return workload.NewProducerConsumer(procs, slots)
}

// NewLockContentionWorkload builds the write-write contention kernel.
func NewLockContentionWorkload(procs, locks int, seed uint64) Generator {
	return workload.NewLockContention(procs, locks, seed)
}

// NewMigrationWorkload builds the task-migration kernel.
func NewMigrationWorkload(procs, tasks, setSize, interval int, seed uint64) Generator {
	return workload.NewMigration(procs, tasks, setSize, interval, seed)
}

// NewBarrierWorkload builds the barrier-synchronization hot-spot kernel.
func NewBarrierWorkload(procs, barriers, spins int) Generator {
	return workload.NewBarrier(procs, barriers, spins)
}

// ZipfSharedConfig parameterizes the skewed-sharing extension of the §4.2
// model (hot locks instead of uniform shared blocks).
type ZipfSharedConfig = workload.ZipfSharedConfig

// NewZipfSharedWorkload builds the Zipf-skewed sharing generator.
func NewZipfSharedWorkload(cfg ZipfSharedConfig) Generator {
	return workload.NewZipfShared(cfg)
}

// Trace is a recorded per-processor reference stream; see RecordTrace.
type Trace = memtrace.Trace

// RecordTrace captures refsPerProc references per processor from gen in
// memory, for deterministic replay across configurations
// (Trace.Generator) or export (Trace.WriteText, Trace.WriteChunked). To
// capture to a file without holding the trace, use StreamTrace.
func RecordTrace(gen Generator, procs, refsPerProc int) *Trace {
	return memtrace.Record(gen, procs, refsPerProc)
}

// StreamTrace writes refsPerProc references per processor from gen to w
// in the chunked trace format (MTRC2), the one binary format; the trace
// never exists in memory, and the file replays what RecordTrace would
// hold.
func StreamTrace(w io.Writer, gen Generator, procs, refsPerProc int) error {
	return memtrace.WriteGenerator(w, gen, procs, refsPerProc, 0, nil)
}

// TraceSource is any replayable trace: the in-memory Trace or the
// streaming chunked-file reader, as returned by OpenTraceFile.
type TraceSource = memtrace.Source

// StreamReader replays a chunked trace file without materializing it:
// references decode one chunk per processor at a time, so trace length
// is bounded by disk, not RAM.
type StreamReader = memtrace.StreamReader

// OpenTraceFile opens a trace file, chunked (MTRC2) or text, telling them
// apart by their first bytes. Chunked traces are streamed (mmap-backed on
// Linux); text loads in memory. A file in the retired MTRC1 format is
// refused by name. Close the source with CloseTraceSource when done.
func OpenTraceFile(path string) (TraceSource, error) { return memtrace.OpenFile(path) }

// CloseTraceSource releases any file or mapping behind src.
func CloseTraceSource(src TraceSource) error { return memtrace.CloseSource(src) }

// RunFromTrace builds a machine for cfg and replays refsPerProc
// references per processor from the trace source. The same source and
// configuration yield byte-identical Results whether the trace lives in
// memory or streams from disk.
func RunFromTrace(cfg Config, src TraceSource, refsPerProc int) (Results, error) {
	return system.RunFromTrace(cfg, src, refsPerProc)
}

// MCScenario bounds an exhaustive model-checking run: the protocol, a
// small machine (caches, blocks, cache sets) and the references each
// processor may issue.
type MCScenario = mcheck.Config

// MCResult summarizes a model-checking closure: its states, edges, rest
// states and depth, and the first violation with its counterexample.
type MCResult = mcheck.Result

// ModelCheck explores every state of a small machine reachable within the
// scenario's reference bound — every interleaving of processor references
// and network deliveries — and proves coherence, the oracle on every
// explored transition, deadlock freedom and progress: the bounded form of
// the correctness proof the paper's conclusion calls for.
func ModelCheck(sc MCScenario) (MCResult, error) { return mcheck.Check(sc) }

// The three sharing levels of §4.3.
var (
	LowSharing      = model.LowSharing
	ModerateSharing = model.ModerateSharing
	HighSharing     = model.HighSharing
)

// Overhead41 evaluates the §4.2 closed form (n-1)·T_SUM: the extra
// commands each cache receives per memory reference under the two-bit
// scheme relative to the full map.
func Overhead41(c SharingCase, n int, w float64) float64 {
	return model.Overhead41(c, n, w)
}

// Overhead42 evaluates the Table 4-2 reconstruction (n-1)·T_R.
func Overhead42(c DuboisConfig) float64 { return model.Overhead42(c) }

// MaxViableProcessors returns the §4.3 viability boundary: the largest
// table-axis n whose two-bit overhead stays below threshold commands per
// reference.
func MaxViableProcessors(c SharingCase, w, threshold float64) int {
	return model.MaxViableProcessors(c, w, threshold)
}

// CostRow is one line of the directory hardware-economy comparison.
type CostRow = model.CostRow

// CostTable compares directory storage (full map vs two bits) across the
// paper's processor counts for the given block size — the "economical"
// half of the title, quantified (§2.4.2, §3.1).
func CostTable(blockBytes int) []CostRow { return model.CostTable(blockBytes) }

// ClassicalInvalidationsPerRef is the §2.3 closed form: (n−1)·P(write)
// commands received per cache per memory reference.
func ClassicalInvalidationsPerRef(procs int, writeFrac float64) float64 {
	return model.ClassicalInvalidationsPerRef(procs, writeFrac)
}

// DefaultDubois returns the Table 4-2 parameters for given n, q, w.
func DefaultDubois(n int, q, w float64) DuboisConfig { return model.DefaultDubois(n, q, w) }

// Table41 computes the Table 4-1 grid [case][w][n] with the paper's axes
// (cases low/moderate/high; w ∈ {0.1..0.4}; n ∈ {4..64}).
func Table41() [][][]float64 { return model.Table41() }

// Table42 computes the Table 4-2 grid [q][w][n].
func Table42() [][][]float64 { return model.Table42() }

// RenderTable41 renders Table 4-1 in the paper's layout.
func RenderTable41() string {
	pt := report.PaperTable{
		Title:    "Table 4-1: Added overhead of two-bit scheme in commands per memory reference, (n-1)·T_SUM",
		Sections: []string{"case 1 (low sharing)", "case 2 (moderate sharing)", "case 3 (high sharing)"},
		WValues:  model.Table41W,
		NValues:  model.Table41N,
		Values:   model.Table41(),
	}
	return pt.String()
}

// RenderTable42 renders the Table 4-2 reconstruction in the paper's
// layout.
func RenderTable42() string {
	pt := report.PaperTable{
		Title:    "Table 4-2: Added overhead derived from the model in [3] (reconstruction), (n-1)·T_R",
		Sections: []string{"q = 0.01", "q = 0.05", "q = 0.10"},
		WValues:  model.Table41W,
		NValues:  model.Table41N,
		Values:   model.Table42(),
	}
	return pt.String()
}

// CompareTable41 renders computed-vs-paper cells for Table 4-1.
func CompareTable41() string {
	return report.SideBySide(
		"Table 4-1: computed (paper)",
		[]string{"case 1", "case 2", "case 3"},
		model.Table41W, model.Table41N,
		model.Table41(), model.PaperTable41)
}

// CompareTable42 renders computed-vs-paper cells for Table 4-2.
func CompareTable42() string {
	return report.SideBySide(
		"Table 4-2: reconstruction (paper)",
		[]string{"q = 0.01", "q = 0.05", "q = 0.10"},
		model.Table41W, model.Table41N,
		model.Table42(), model.PaperTable42)
}

// Recorder is the observability instrument set a machine carries via
// Config.Obs: an event ring, counters, histograms, transaction spans
// (EnableSpans), windowed time-series (EnableWindows) and per-block
// contention attribution (EnableContention). Every instrument is
// passive — recording cannot perturb a run — and the nil *Recorder is
// the disabled instrument, so instrumentation hooks cost a nil check
// when observability is off.
type Recorder = obs.Recorder

// NewRecorder builds a recorder with an event ring of the given
// capacity (0 disables event retention; counters, series and profilers
// still work).
func NewRecorder(ringCap int) *Recorder { return obs.New(ringCap) }

// ObsSnapshot is a recorder's frozen state: counters, histograms, span
// matrices, windowed series, hot-block tables and false-sharing
// profiles. Results.Obs carries one when the machine ran instrumented.
type ObsSnapshot = obs.Snapshot

// SeriesValue is one windowed time-series inside a snapshot: Values[i]
// covers sim time [i·Width, (i+1)·Width).
type SeriesValue = obs.SeriesValue

// SeriesKind says how a series folds samples into windows and how two
// runs' windows merge.
type SeriesKind = obs.SeriesKind

// The three series kinds.
const (
	SeriesSum   = obs.SeriesSum   // counts: windows add
	SeriesMax   = obs.SeriesMax   // peaks: windows max
	SeriesGauge = obs.SeriesGauge // levels: forward-filled, add across runs
)

// DefaultWindowWidth is the window width (sim cycles) tools use unless
// told otherwise.
const DefaultWindowWidth = obs.DefaultWindowWidth

// BlockStat is one hot block in a snapshot's top-K tables: Count
// overestimates the true count by at most Err (Space-Saving bound).
type BlockStat = obs.BlockStat

// FalseShareStat is one watched block's write-interleaving profile; its
// FalseShared method reports whether distinct processors interleaved
// writes to distinct words — the false-sharing signature.
type FalseShareStat = obs.FalseShareStat

// Storm is one flagged window from DetectStorms.
type Storm = obs.Storm

// DetectStorms flags the windows of a series whose count is at least
// factor times the series mean and at least minCount absolute — the
// invalidation-storm detector when run over a "sys/invalidations"
// series.
func DetectStorms(s SeriesValue, minCount uint64, factor float64) []Storm {
	return obs.DetectStorms(s, minCount, factor)
}

// MergeSnapshots folds runs' snapshots into a campaign aggregate:
// counters and sum/gauge windows add, max windows keep peaks, top-K
// tables union-join. The merge is commutative and associative, so an
// aggregate is well-defined no matter how runs are grouped.
func MergeSnapshots(snaps ...ObsSnapshot) (ObsSnapshot, error) {
	return obs.MergeAll(snaps...)
}

// DefaultContentionK is the hot-block table capacity tools use unless
// told otherwise.
const DefaultContentionK = obs.DefaultContentionK

// DirStateSeriesNames are the windowed directory-census series a
// machine publishes when windows are enabled, indexed by two-bit
// directory state.
var DirStateSeriesNames = obs.DirStateSeriesNames

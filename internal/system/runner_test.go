package system

import (
	"bytes"
	"reflect"
	"testing"

	"twobit/internal/addr"
	"twobit/internal/cache"
	"twobit/internal/obs"
	"twobit/internal/oracle"
	"twobit/internal/proto"
	"twobit/internal/rng"
	"twobit/internal/sim"
	"twobit/internal/workload"
)

func runnerGen(procs int, seed uint64) workload.Generator {
	return workload.NewSharedPrivate(workload.SharedPrivateConfig{
		Procs: procs, SharedBlocks: 16, Q: 0.1, W: 0.3,
		PrivateHit: 0.9, PrivateWrite: 0.3, HotBlocks: 64, ColdBlocks: 512, Seed: seed,
	})
}

// TestRunnerReuse pins the Runner's contract: a heterogeneous sequence
// of runs through one Runner — every protocol engine, every network,
// different machine sizes, instrumentation and tracing on and off,
// repeated shapes that hit the machine pool — must each produce results
// and traces byte-identical to the same configuration run on a fresh
// machine. Any state leaking through the reused kernel, oracle tables,
// obs hook, recorder, trace writer, pooled machine graph, or encode
// buffer shows up as a mismatch.
func TestRunnerReuse(t *testing.T) {
	cases := []struct {
		name     string
		protocol Protocol
		procs    int
		seed     uint64
		// mut runs once per machine, so a recorder or trace buffer it
		// attaches is each machine's own: both are single-run.
		mut func(*Config)
	}{
		{"two-bit/4", TwoBit, 4, 42, nil},
		{"full-map/8", FullMap, 8, 7, nil},
		{"two-bit/4+obs", TwoBit, 4, 42, func(c *Config) { c.Obs = obs.New(0) }}, // pool hit
		{"two-bit/4 again", TwoBit, 4, 42, nil},                                  // after obs: the hook must not leak; pool hit
		// Defect hooks are value parameters: a pool hit that sets them, then
		// one that clears them. At seed 30 the hook changes the results, so
		// a reset that dropped or kept it would diverge from fresh.
		{"two-bit/4+hooks", TwoBit, 4, 30, func(c *Config) {
			c.CoreHooks = &proto.BugHooks{SkipMRequestQueueDelete: true}
		}},
		{"two-bit/4 seed30", TwoBit, 4, 30, nil},
		{"classical/2", Classical, 2, 3, nil},
		{"full-map+E/4", FullMapExclusive, 4, 11, nil},
		{"duplication/2", Duplication, 2, 5, func(c *Config) { c.Modules = 1 }},
		{"write-once/4", WriteOnce, 4, 13, func(c *Config) { c.Net = BusNet }},
		{"software/4", Software, 4, 17, nil},
		{"two-bit/4/bus", TwoBit, 4, 42, func(c *Config) { c.Net = BusNet }},
		{"two-bit/4/omega", TwoBit, 4, 42, func(c *Config) { c.Net = OmegaNet }},
		{"two-bit/4/jitter", TwoBit, 4, 42, func(c *Config) { c.NetJitter = 3 }},
		{"two-bit/4+tb", TwoBit, 4, 42, func(c *Config) { c.TranslationBufferSize = 8 }},
		{"two-bit/4+dma", TwoBit, 4, 42, func(c *Config) {
			c.DMA = DMAConfig{Devices: 2, Blocks: 32, WriteFrac: 0.25}
		}},
		// Pool hits with changed value parameters: same shape as
		// "two-bit/4" but a different seed, policy, and oracle setting.
		{"two-bit/4 seed9", TwoBit, 4, 9, nil},
		{"two-bit/4/random no-oracle", TwoBit, 4, 42, func(c *Config) {
			c.CachePolicy = cache.Random // exercises the PCG reseed
			c.Oracle = false
		}},
		{"full-map/8 again", FullMap, 8, 8, nil}, // pool hit, new seed
		{"write-once/4 again", WriteOnce, 4, 14, func(c *Config) { c.Net = BusNet }},
		{"duplication/2 again", Duplication, 2, 6, func(c *Config) { c.Modules = 1 }},
		{"two-bit/4/omega again", TwoBit, 4, 43, func(c *Config) { c.Net = OmegaNet }},
		{"two-bit/4+trace", TwoBit, 4, 42, func(c *Config) { c.TraceWriter = new(bytes.Buffer) }},
		// Every aggregator on a shape pooled uninstrumented, then the same
		// shape bare: the second must detach everything the first attached.
		{"full-map/8+spans+windows+contention", FullMap, 8, 8, func(c *Config) {
			c.Obs = obs.New(0)
			c.Obs.EnableSpans(0)
			c.Obs.EnableWindows(64)
			c.Obs.EnableContention(16)
		}},
		{"full-map/8 bare", FullMap, 8, 9, nil},
	}

	rn := NewRunner()
	var prevEnc []byte
	var lastRec *obs.Recorder // the latest instrumented run's, and its
	var lastSnap obs.Snapshot // snapshot when that run ended
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			config := func() Config {
				cfg := DefaultConfig(c.protocol, c.procs)
				cfg.Seed = c.seed
				if c.mut != nil {
					c.mut(&cfg)
				}
				return cfg
			}
			cfg, fresh := config(), config()
			got, err := rn.Run(cfg, runnerGen(c.procs, c.seed), 600)
			if err != nil {
				t.Fatal(err)
			}
			gotEnc, err := rn.EncodeStable(got)
			if err != nil {
				t.Fatal(err)
			}

			m, err := New(fresh, runnerGen(c.procs, c.seed))
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.Run(600)
			if err != nil {
				t.Fatal(err)
			}
			wantEnc, err := want.EncodeStable()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotEnc, wantEnc) {
				t.Errorf("runner results diverge from fresh machine:\n--- runner ---\n%s\n--- fresh ---\n%s", gotEnc, wantEnc)
			}
			if got, want := traceOf(cfg), traceOf(fresh); !bytes.Equal(got, want) {
				t.Errorf("runner trace (%d bytes) diverges from fresh machine's (%d bytes)", len(got), len(want))
			}
			// The shared encode buffer must not alias previous output.
			if prevEnc != nil && &prevEnc[0] == &gotEnc[0] {
				t.Error("EncodeStable returned an aliased buffer across runs")
			}
			prevEnc = gotEnc
			if cfg.Obs != nil {
				lastRec, lastSnap = cfg.Obs, cfg.Obs.Snapshot()
				return
			}
			assertDetached(t, rn.pool[shapeOf(cfg, runnerGen(c.procs, c.seed).Blocks())])
			if lastRec != nil && !reflect.DeepEqual(lastRec.Snapshot(), lastSnap) {
				t.Error("an uninstrumented run wrote to the previous run's recorder")
			}
		})
	}
	// The repeated shapes above must have reused pooled machines: fewer
	// distinct graphs than runs proves at least one pool hit.
	if n := rn.PooledMachines(); n == 0 || n >= len(cases) {
		t.Errorf("pooled %d machines over %d runs; expected 0 < pooled < runs", n, len(cases))
	}
}

// traceOf returns what cfg's trace buffer, if any, has recorded.
func traceOf(cfg Config) []byte {
	if b, ok := cfg.TraceWriter.(*bytes.Buffer); ok {
		return b.Bytes()
	}
	return nil
}

// assertDetached fails unless m, which just ran without a recorder, has
// no kernel hook — not even a typed-nil profile, which would still cost a
// call per event — and a network with no recorder.
func assertDetached(t *testing.T, m *Machine) {
	t.Helper()
	if hook := reflect.ValueOf(m.kernel).Elem().FieldByName("hook"); !hook.IsNil() {
		t.Errorf("uninstrumented run left a %v kernel hook installed", hook.Elem().Type())
	}
	net := reflect.ValueOf(m.net)
	if net.Type() == reflect.TypeOf(&traceNet{}) {
		net = net.Elem().FieldByName("inner").Elem()
	}
	if rec := net.Elem().FieldByName("rec"); !rec.IsValid() || !rec.IsNil() {
		t.Errorf("uninstrumented run left the %v network observed", net.Type())
	}
}

// TestRunnerPoolProperty is the randomized counterpart of
// TestRunnerReuse: a seeded random sequence of configurations —
// protocol × network × processor count × cache geometry × workload
// footprint × policy × seed — runs through one Runner, and every result
// is byte-compared against a fresh machine; about a quarter of the points
// attach a recorder (with random spans, windows and contention), and about
// a quarter a trace writer, whose bytes are compared too. A second pass
// then replays the whole sequence in a shuffled order through the same
// Runner, so every shape is exercised at least once as a pool hit, and
// compares against the bytes recorded in the first pass.
//
// On failure the test prints the generator seed and the failing case's
// full configuration, and shrinks: it re-runs the failing configuration
// alone on a fresh Runner to report whether the divergence needs the
// preceding sequence (pooled-state leak) or reproduces standalone.
func TestRunnerPoolProperty(t *testing.T) {
	const propSeed uint64 = 0xC0FFEE42 // change to a failure's printed seed to repro
	random := rng.New(propSeed, 1)

	type point struct {
		cfg   Config
		gseed uint64
		hot   int
		cold  int
		// What the point attaches; recorders and trace writers are
		// single-run, so each run gets new ones (see instrument).
		obs, spans, windows, contention, trace bool
		enc, traced                            []byte // expected results and trace, from a fresh machine
	}
	protocols := []Protocol{TwoBit, FullMap, FullMapExclusive, Classical, Duplication, WriteOnce, Software}
	geoms := [][2]int{{32, 4}, {8, 2}}
	footprints := [][2]int{{64, 512}, {16, 128}}
	policies := []cache.ReplacementPolicy{cache.LRU, cache.FIFO, cache.Random}

	gen := func(pt *point) workload.Generator {
		return workload.NewSharedPrivate(workload.SharedPrivateConfig{
			Procs: pt.cfg.Procs, SharedBlocks: 16, Q: 0.1, W: 0.3,
			PrivateHit: 0.9, PrivateWrite: 0.3,
			HotBlocks: pt.hot, ColdBlocks: pt.cold, Seed: pt.gseed,
		})
	}
	// instrument returns pt's config with a new recorder and trace writer
	// attached as pt draws them, and the writer's buffer.
	instrument := func(pt *point) (Config, *bytes.Buffer) {
		cfg, trace := pt.cfg, new(bytes.Buffer)
		if pt.obs {
			cfg.Obs = obs.New(0)
			if pt.spans {
				cfg.Obs.EnableSpans(0)
			}
			if pt.windows {
				cfg.Obs.EnableWindows(32)
			}
			if pt.contention {
				cfg.Obs.EnableContention(8)
			}
		}
		if pt.trace {
			cfg.TraceWriter = trace
		}
		return cfg, trace
	}

	const refs = 250
	rn := NewRunner()

	// runOn runs pt through r, or on a fresh machine when r is nil, and
	// returns the encoded results and the trace.
	runOn := func(r *Runner, pt *point) (enc, trace []byte, err error) {
		cfg, buf := instrument(pt)
		var res Results
		if r == nil {
			m, err := New(cfg, gen(pt))
			if err != nil {
				return nil, nil, err
			}
			if res, err = m.Run(refs); err != nil {
				return nil, nil, err
			}
			enc, err = res.EncodeStable()
		} else {
			if res, err = r.Run(cfg, gen(pt), refs); err != nil {
				return nil, nil, err
			}
			enc, err = r.EncodeStable(res)
		}
		return enc, buf.Bytes(), err
	}

	// check runs pt through rn and compares against the fresh machine's
	// bytes, computed on pt's first check.
	check := func(i int, pt *point, phase string) {
		t.Helper()
		gotEnc, gotTrace, err := runOn(rn, pt)
		if err != nil {
			t.Fatalf("seed %#x case %d (%s): runner: %v\nconfig: %+v", propSeed, i, phase, err, pt.cfg)
		}
		if pt.enc == nil {
			if pt.enc, pt.traced, err = runOn(nil, pt); err != nil {
				t.Fatalf("seed %#x case %d (%s): fresh machine: %v\nconfig: %+v", propSeed, i, phase, err, pt.cfg)
			}
		}
		if !bytes.Equal(gotEnc, pt.enc) || !bytes.Equal(gotTrace, pt.traced) {
			// Shrink: does the same config diverge without the preceding
			// sequence? If yes the bug is in a single pooled run (or in
			// Runner state independent of pooling); if no, a prior run
			// leaked state into this shape's pooled machine.
			standalone := "reproduces standalone on a fresh Runner (not a pool-sequence leak)"
			if e2, t2, err := runOn(NewRunner(), pt); err == nil && bytes.Equal(e2, pt.enc) && bytes.Equal(t2, pt.traced) {
				standalone = "does NOT reproduce standalone — a preceding run leaked state into the pooled machine"
			}
			t.Fatalf("seed %#x case %d (%s): runner diverges from fresh machine; %s\nconfig: %+v\nworkload: hot=%d cold=%d gseed=%#x\nobs=%t (spans=%t windows=%t contention=%t) trace=%t",
				propSeed, i, phase, standalone, pt.cfg, pt.hot, pt.cold, pt.gseed,
				pt.obs, pt.spans, pt.windows, pt.contention, pt.trace)
		}
	}

	const n = 32
	pts := make([]*point, n)
	for i := range pts {
		p := protocols[random.Intn(len(protocols))]
		procs := 1 + random.Intn(8)
		cfg := DefaultConfig(p, procs)
		cfg.Seed = random.Uint64()
		geo := geoms[random.Intn(len(geoms))]
		cfg.CacheSets, cfg.CacheAssoc = geo[0], geo[1]
		cfg.CachePolicy = policies[random.Intn(len(policies))]
		cfg.Modules = []int{1, 2, 4}[random.Intn(3)]
		cfg.Oracle = random.Bool(0.75)
		switch p {
		case WriteOnce:
			cfg.Net = BusNet
		case Duplication:
			cfg.Modules = 1
			cfg.Net = []NetKind{CrossbarNet, BusNet, OmegaNet}[random.Intn(3)]
		default:
			cfg.Net = []NetKind{CrossbarNet, BusNet, OmegaNet}[random.Intn(3)]
		}
		if cfg.Net == CrossbarNet && random.Bool(0.3) {
			cfg.NetJitter = sim.Time(1 + random.Intn(3))
		}
		if p == TwoBit && random.Bool(0.3) {
			cfg.TranslationBufferSize = 4 + 4*random.Intn(3)
		}
		switch p {
		case TwoBit, FullMap, FullMapExclusive:
			if random.Bool(0.25) {
				cfg.DMA = DMAConfig{Devices: 1 + random.Intn(2), Blocks: 32, WriteFrac: 0.25}
			}
		}
		fp := footprints[random.Intn(len(footprints))]
		pts[i] = &point{cfg: cfg, gseed: random.Uint64(), hot: fp[0], cold: fp[1]}
		if random.Bool(0.25) {
			pts[i].obs = true
			pts[i].spans, pts[i].windows, pts[i].contention = random.Bool(0.5), random.Bool(0.5), random.Bool(0.5)
		}
		pts[i].trace = random.Bool(0.25)
	}

	for i, pt := range pts {
		check(i, pt, "first pass")
	}
	// Replay in shuffled order: every shape is now in the pool, so these
	// runs exercise reset-on-reuse against the recorded bytes.
	for _, i := range random.Perm(n) {
		check(i, pts[i], "replay")
	}
	if rn.PooledMachines() == 0 {
		t.Error("property sequence pooled no machines")
	}
}

// TestOracleReset pins Reset: an oracle that has accumulated state must
// behave exactly like a fresh one after Reset.
func TestOracleReset(t *testing.T) {
	o := oracle.New(16)
	o.Commit(3, 1)
	o.Commit(3, 2)
	o.Commit(9, 3)
	if err := o.NoteWrite(0, 3, 2); err != nil {
		t.Fatal(err)
	}
	o.Reset(16)
	if o.Commits() != 0 {
		t.Errorf("Reset left %d commits", o.Commits())
	}
	if v := o.Latest(3); v != 0 {
		t.Errorf("Reset left Latest(3) = %d", v)
	}
	// A version number from before the Reset must read as uncommitted.
	if err := o.CheckLoad(0, 3, 0, 2, false); err == nil {
		t.Error("pre-Reset version still committed after Reset")
	}
	// And the tables must work as a fresh oracle's would.
	o.Commit(3, 5)
	if err := o.CheckLoad(1, 3, 0, 5, false); err != nil {
		t.Errorf("post-Reset load rejected: %v", err)
	}
}

// churnGen is a seeded reference stream over 64 blocks for caches of 8
// frames: most references miss and evict, a third are stores, a quarter
// go to the shared blocks. Reseeding replays it, so a second pass touches
// exactly what the first one warmed.
type churnGen struct{ rnd []*rng.PCG }

func (g *churnGen) Blocks() int { return 64 }

func (g *churnGen) Next(p int) addr.Ref {
	b := g.rnd[p].Intn(64)
	return addr.Ref{Block: addr.Block(b), Write: g.rnd[p].Intn(3) == 0, Shared: b < 16}
}

// TestZeroAllocBaselines: on a warmed machine the three baseline engines
// — classical, write-once, software — run a whole reference stream without
// allocating: the hit path, and the read-miss, write-through-and-ack,
// uncached, write-back and bus-transaction paths each was checked to have
// taken. The directory engine's floor is TestZeroAllocController. The
// oracle is off: its commit hook is a method value made per reset, not by
// the engines.
func TestZeroAllocBaselines(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const procs, refs = 4, 1500
	for _, p := range []Protocol{Classical, WriteOnce, Software} {
		cfg := DefaultConfig(p, procs)
		cfg.CacheSets, cfg.CacheAssoc, cfg.Oracle = 4, 2, false
		gen := &churnGen{rnd: make([]*rng.PCG, procs)}
		for k := range gen.rnd {
			gen.rnd[k] = rng.New(0, 0)
		}
		m, err := New(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		pass := func() {
			m.kernel.Reset()
			m.reset(cfg, gen, nil)
			for k, r := range gen.rnd {
				r.Reseed(21, uint64(k))
				m.issue(k, refs)
			}
			m.kernel.Run()
			if m.completed != procs {
				t.Fatalf("%v: %d of %d processors finished", p, m.completed, procs)
			}
		}
		pass()
		var hits, dirty, retries uint64
		for _, a := range m.caches {
			hits += a.Store().Stats().Hits.Value()
			dirty += a.SideStats().EvictionsDirty.Value()
			retries += a.SideStats().Retries.Value()
		}
		cs := m.ctrls[0].CtrlStats()
		took := map[Protocol]bool{
			Classical: cs.Broadcasts.Value() > 0 && cs.ReadMisses.Value() > 0,
			WriteOnce: cs.ReadMisses.Value() > 0 && cs.WriteMisses.Value() > 0 && cs.MRequests.Value() > 0 && dirty > 0 && retries > 0,
			Software:  cs.ReadMisses.Value() > 0 && cs.WriteMisses.Value() > 0 && cs.Ejects.Value() > 0 && dirty > 0,
		}
		if hits == 0 || !took[p] {
			t.Fatalf("%v: the warm-up pass skipped a path: %d hits, %d dirty evictions, %d retries, controller 0 %+v", p, hits, dirty, retries, *cs)
		}
		if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
			t.Errorf("%v: a warmed machine allocates %v per %d-reference run, want 0", p, allocs, procs*refs)
		}
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"twobit/internal/addr"
	"twobit/internal/cache"
	"twobit/internal/directory"
	"twobit/internal/memtrace"
	"twobit/internal/model"
	"twobit/internal/msg"
	"twobit/internal/network"
	"twobit/internal/obs"
	"twobit/internal/sim"
	"twobit/internal/sweep"
	"twobit/internal/system"
	"twobit/internal/tracegen"
)

// ratio is a/b, and 0 when the layer did nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perOp times n calls of op as five batches and returns the median
// nanoseconds per call.
func perOp(n int, op func(i int)) float64 {
	var per []float64
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// countMetrics reads the modelled machine's own counters out of the
// warm-up iteration's Results. They are simulated quantities: a change
// to the simulator alone must leave every one of them where it was.
func countMetrics(r *report, base []caseResult) {
	var refs, msgs, copies, hits, misses, lookups, snoopHits, stolen, evictions float64
	var cmds, useless, retries, txns, bcasts, busy, maxQueue, busBusy, busCycles float64
	for _, c := range base {
		res := c.res
		refs += float64(res.Refs)
		msgs += float64(res.Net.Messages.Value())
		copies += float64(res.Net.BroadcastCopies.Value())
		if b := res.Net.BusBusyCycles.Value(); b > 0 {
			busBusy += float64(b)
			busCycles += float64(res.Cycles)
		}
		for _, s := range res.Store {
			hits += float64(s.Hits.Value())
			misses += float64(s.Misses.Value())
			lookups += float64(s.SnoopLookups.Value())
			snoopHits += float64(s.SnoopHits.Value())
			stolen += float64(s.StolenCycles.Value())
		}
		for _, s := range res.Cache {
			// The agents clear a victim before refilling its frame, so the
			// store's own eviction counter never moves; theirs does.
			evictions += float64(s.EvictionsClean.Value() + s.EvictionsDirty.Value())
			cmds += float64(s.CommandsReceived.Value())
			useless += float64(s.UselessCommands.Value())
			retries += float64(s.Retries.Value())
		}
		for _, s := range res.Ctrl {
			txns += float64(s.Requests.Value() + s.MRequests.Value() + s.Ejects.Value())
			bcasts += float64(s.Broadcasts.Value())
			busy += float64(s.BusyCycles.Value())
			if q := float64(s.MaxQueue); q > maxQueue {
				maxQueue = q
			}
		}
	}
	r.put("network.msgs_per_ref", msgs/refs)
	r.put("network.bcast_copies_per_ref", copies/refs)
	r.put("cache.miss_ratio", ratio(misses, hits+misses))
	r.put("cache.snoop_hit_ratio", ratio(snoopHits, lookups))
	r.put("cache.stolen_cycles_per_ref", stolen/refs)
	r.put("cache.evictions_per_ref", evictions/refs)
	r.put("proto.useless_frac", ratio(useless, cmds))
	r.put("proto.retries_per_ref", retries/refs)
	r.put("core.txns_per_ref", txns/refs)
	r.put("core.broadcasts_per_ref", bcasts/refs)
	r.put("core.busy_cycles_per_txn", ratio(busy, txns))
	r.put("core.max_queue", maxQueue)
	if busCycles > 0 {
		r.put("network.bus_busy_frac", busBusy/busCycles)
	}
}

// chain is the isolated kernel driver: every event schedules one
// successor a few cycles out until the budget is spent, which holds the
// queue at its starting depth.
type chain struct {
	k    *sim.Kernel
	left int
}

func (c *chain) Call(a0, _ uint64) {
	if c.left > 0 {
		c.left--
		c.k.AtCall(c.k.Now()+sim.Time(1+a0&7), c, a0*0x9E3779B97F4A7C15+1, 0)
	}
}

// isolatedKernel runs events AtCall+Step pairs through a bare kernel
// holding depth events, and returns events per second.
func isolatedKernel(events, depth int) float64 {
	var rates []float64
	for b := 0; b < 5; b++ {
		k := &sim.Kernel{}
		c := &chain{k: k, left: events - depth}
		for i := 0; i < depth; i++ {
			k.AtCall(sim.Time(i&7), c, uint64(i), 0)
		}
		t0 := time.Now()
		k.Run()
		rates = append(rates, float64(k.Processed())/time.Since(t0).Seconds())
	}
	return median(rates)
}

// isolatedNetwork drives a network of the case's kind and node count,
// with handlers that do nothing, through the send/broadcast mix the
// case's run counted, and returns nanoseconds per delivery (kernel
// scheduling and dispatch of the delivery included).
func isolatedNetwork(cfg system.Config, st network.Stats) float64 {
	nodes := cfg.Procs + cfg.Modules
	bcasts := int(st.Broadcasts.Value())
	sends := int(st.Messages.Value() - st.BroadcastCopies.Value())
	// Keep the mix, cap the volume.
	for sends+bcasts > 200_000 {
		sends, bcasts = sends/2, bcasts/2
	}
	var per []float64
	for b := 0; b < 5; b++ {
		k := &sim.Kernel{}
		var net network.Network
		if cfg.Net == system.BusNet {
			net = network.NewBus(k, cfg.BusCycle, cfg.NetLatency)
		} else {
			net = network.NewCrossbar(k, cfg.NetLatency)
		}
		sink := network.HandlerFunc(func(network.NodeID, msg.Message) {})
		for i := 0; i < nodes; i++ {
			net.Attach(network.NodeID(i), sink)
		}
		t0 := time.Now()
		total := sends + bcasts
		for i := 0; i < total; i++ {
			src := network.NodeID(i % nodes)
			// Operation i is a broadcast when the broadcasts' running share
			// of the mix crosses a whole number: an even spread, exact counts.
			if (i+1)*bcasts/total > i*bcasts/total {
				net.Broadcast(src, msg.Message{Kind: msg.KindBroadInv, Block: addr.Block(i)})
			} else {
				net.Send(src, network.NodeID((i+1)%nodes), msg.Message{Kind: msg.KindRequest, Block: addr.Block(i)})
			}
			if i%8 == 7 {
				k.Run()
			}
		}
		k.Run()
		per = append(per, ratio(float64(time.Since(t0).Nanoseconds()), float64(net.Stats().Messages.Value())))
	}
	return median(per)
}

// isolatedLayers drives the kernel, network, cache and directory alone
// with the primary (first) case's own inputs and counts.
func isolatedLayers(r *report, c machineCase, base caseResult, peakPending int) {
	cfg, gen := c.mk()
	r.put("sim.isolated_events_per_s", isolatedKernel(int(base.events), peakPending))
	perDelivery := isolatedNetwork(cfg, base.res.Net)
	r.put("network.isolated_ns_per_delivery", perDelivery)
	r.put("network.est_ns_per_ref", perDelivery*float64(base.res.Net.Messages.Value())/float64(base.res.Refs))

	// Processor 0's stream, drawn up front so the generator is not timed.
	stream := make([]addr.Block, min(c.refs, 100_000))
	for i := range stream {
		stream[i] = gen.Next(0).Block
	}
	cc := cache.New(cache.Config{Sets: cfg.CacheSets, Assoc: cfg.CacheAssoc, Policy: cfg.CachePolicy})
	r.put("cache.isolated_ns_per_access", perOp(len(stream), func(i int) {
		if cc.Access(stream[i]) == nil {
			cc.Fill(cc.Victim(stream[i]), stream[i], 0)
		}
	}))
	blocks := gen.Blocks()
	dir := directory.NewTwoBitMap(blocks)
	r.put("directory.isolated_ns_per_op", perOp(len(stream), func(i int) {
		b := int(stream[i])
		dir.Set(b, (dir.Get(b)+1)&3)
	})/2)
	r.put("directory.bytes", float64(dir.SizeBytes()))
	r.put("directory.fullmap_bytes", float64(directory.NewFullMap(blocks, cfg.Procs).SizeBytes()))
}

// poolMetrics prices machine construction against the pool on the
// fixed small run sweep campaigns are made of: two-bit, 8 processors,
// 500 references each.
func poolMetrics(r *report, seed uint64, rounds int) {
	c := sharedPrivateCase(system.TwoBit, 8, 0.05, 0.2, 500, seed, false)
	var fresh, pooled []float64
	rn := system.NewRunner()
	for i := 0; i < rounds; i++ {
		cfg, gen := c.mk()
		t0 := time.Now()
		if m, err := system.New(cfg, gen); err == nil {
			_, _ = m.Run(c.refs) // the same run the workloads hold to digests
		}
		fresh = append(fresh, float64(time.Since(t0).Nanoseconds())/1e3)
		cfg, gen = c.mk()
		t0 = time.Now()
		_, _ = rn.Run(cfg, gen, c.refs)
		pooled = append(pooled, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	r.put("system.fresh_run_us", median(fresh))
	r.put("system.pooled_run_us", median(pooled))
}

// twins are the untraced runs the layer pass makes beside the traced
// ones: the workload as it is, with the oracle off, and (when it has a
// recorder) with the recorder off. Nanoseconds per iteration; perCase
// is seconds per machine of the as-is runs.
type twins struct {
	plain, noOracle, noObs []float64
	perCase                [][]float64
}

// layerPass is the traced pass and everything measured beside it. Every
// round runs the workload traced; every other round also runs its
// untraced twins, so the A/B comparisons see the same host conditions
// as the traced runs they are compared with.
func layerPass(r *report, p *prepared, def *workloadDef, seed uint64, traceDir string) error {
	cases, tot := p.in.cases, p.totals()
	iters := max(tracedIters/p.scale, 2)
	t := newTracer()
	observed := p.base[0].res.Obs != nil
	tw := twins{perCase: make([][]float64, len(cases))}
	var traced []float64
	untraced := func(mod func(*system.Config)) (float64, []caseResult, error) {
		t0 := time.Now()
		rs, err := runCases(cases, nil, mod)
		return float64(time.Since(t0).Nanoseconds()), rs, err
	}
	for i := 0; i < iters; i++ {
		t0 := t.now()
		if err := t.iteration(cases, p.want, i); err != nil {
			return err
		}
		traced = append(traced, float64(t.now()-t0))
		if i%2 == 1 {
			continue // the twins need half the samples the apportioning does
		}
		ns, rs, err := untraced(nil)
		if err != nil {
			return err
		}
		tw.plain = append(tw.plain, ns)
		for j, c := range rs {
			tw.perCase[j] = append(tw.perCase[j], c.wall.Seconds())
		}
		if ns, _, err = untraced(func(c *system.Config) { c.Oracle = false }); err != nil {
			return err
		}
		tw.noOracle = append(tw.noOracle, ns)
		if observed {
			if ns, _, err = untraced(func(c *system.Config) { c.Obs = nil }); err != nil {
				return err
			}
			tw.noObs = append(tw.noObs, ns)
		}
	}
	traceMetrics(r, t.spans, tot.runs, calibrateClock())
	r.put("sim.peak_pending", float64(t.peakPending))
	r.put("harness.trace_overhead_pct", 100*(median(traced)/median(tw.plain)-1))
	r.put("system.oracle_ns_per_ref", (median(tw.plain)-median(tw.noOracle))/tot.refs)
	countMetrics(r, p.base)
	isolatedLayers(r, cases[0], p.base[0], t.peakPending)
	poolMetrics(r, seed, max(50/p.scale, 2))
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		if err := writeChromeTrace(filepath.Join(traceDir, def.name+".trace.json"), def.name, t.spans); err != nil {
			return err
		}
	}
	if def.extras != nil {
		return def.extras(r, p, tw)
	}
	return nil
}

// modelExtras puts the simulated broadcast overhead beside the §4.2
// closed form for the same sharing case, n and w.
func modelExtras(c model.SharingCase, n int, w float64) func(*report, *prepared, twins) error {
	return func(r *report, p *prepared, _ twins) error {
		r.put("model.useless_vs_tsum", p.base[0].res.UselessPerCachePerRef/model.Overhead41(c, n, w))
		return nil
	}
}

// spectrumExtras gives each protocol its own row, to localise a move of
// the workload's total.
func spectrumExtras(r *report, p *prepared, tw twins) error {
	for j, c := range p.in.cases {
		r.put(protoPrefix[j]+".refs_per_s", float64(c.procs*c.refs)/median(tw.perCase[j]))
		r.put(protoPrefix[j]+".allocs_per_ref", allocsPerRef([]machineCase{c}, nil))
	}
	return nil
}

// allocsPerRef counts heap allocations per reference over three
// iterations of cases.
func allocsPerRef(cases []machineCase, mod func(*system.Config)) float64 {
	const rounds = 3
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var refs float64
	for i := 0; i < rounds; i++ {
		rs, err := runCases(cases, nil, mod)
		if err != nil {
			return 0 // the timed passes have already reported this failure
		}
		for _, c := range rs {
			refs += float64(c.res.Refs)
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / refs
}

// replayExtras measures the trace path beside the replay it feeds:
// decode alone, the streamed generator's residency, and the live
// tracegen generator the file was synthesized from (its slower twin).
func replayExtras(r *report, p *prepared, _ twins) error {
	r.put("memtrace.next_ns", r.Metrics["workload.next_ns"].Value)
	r.put("tracegen.synth_refs_per_s", p.in.synthRefsPerS)
	raw, err := os.ReadFile(p.in.tracePath)
	if err != nil {
		return err
	}
	var rates []float64
	for i := 0; i < 5; i++ {
		n := 0
		t0 := time.Now()
		if _, err := memtrace.ScanChunked(bytes.NewReader(raw), func(_ int, refs []addr.Ref) error {
			n += len(refs)
			return nil
		}); err != nil {
			return err
		}
		rates = append(rates, float64(n)/time.Since(t0).Seconds())
	}
	r.put("memtrace.decode_refs_per_s", median(rates))

	c := p.in.cases[0]
	_, gen := c.mk()
	for i := 0; i < c.refs; i++ {
		for proc := 0; proc < c.procs; proc++ {
			gen.Next(proc)
		}
	}
	if sg, ok := gen.(*memtrace.StreamGen); ok {
		r.put("memtrace.resident_bytes", float64(sg.MaxResidentBytes()))
	}
	live := tracegen.New(p.in.spec)
	r.put("tracegen.next_ns", perOp(c.refs*c.procs, func(i int) { live.Next(i % c.procs) }))
	return nil
}

// obsExtras prices the recorder against its bypass twin, and its three
// hot entry points alone.
func obsExtras(r *report, p *prepared, tw twins) error {
	cases, res := p.in.cases, p.base[0].res
	r.put("obs.overhead_pct", 100*(1-median(tw.noObs)/median(tw.plain)))
	r.put("obs.allocs_per_ref", allocsPerRef(cases, nil)-allocsPerRef(cases, func(c *system.Config) { c.Obs = nil }))
	if enc, err := res.EncodeStable(); err == nil {
		plain := res
		plain.Obs = nil
		if bare, err := plain.EncodeStable(); err == nil {
			r.put("obs.snapshot_bytes", float64(len(enc)-len(bare)))
		}
	}
	var now sim.Time
	rec := obs.New(0)
	rec.SetClock(func() sim.Time { return now })
	rec.EnableWindows(obs.DefaultWindowWidth)
	sp := rec.EnableSpans(0)
	ctr := rec.Counter("bench/refs")
	series := rec.Windows().Series("bench/refs", obs.SeriesSum)
	n := (1 << 20) / p.scale
	r.put("obs.isolated_counter_ns", perOp(n, func(int) { ctr.Inc() }))
	r.put("obs.isolated_window_ns", perOp(n, func(i int) { now = sim.Time(i >> 2); series.Inc() }))
	r.put("obs.isolated_span_ns", perOp(n, func(i int) {
		c := i & 7
		sp.Start(c, obs.ClassReadMiss, int64(i&1023))
		sp.Mark(c, obs.PhaseReqTransit)
		sp.Mark(c, obs.PhaseMemory)
		sp.Mark(c, obs.PhaseDataReturn)
		sp.Finish(c)
	}))
	return nil
}

// sweepExtras takes the campaign pass apart: the same 84 runs through a
// pooled system.Runner are the work, what sweep.Execute adds on top is
// its overhead.
func sweepExtras(r *report, p *prepared, _ twins) error {
	plan, cases := p.in.plan, p.in.cases
	r.put("sweep.record_bytes", p.recordBytes)
	rn := system.NewRunner()
	var buf bytes.Buffer
	var pooled, pass []float64
	for i := 0; i < max(5/p.scale, 1); i++ {
		t0 := time.Now()
		for _, c := range cases {
			cfg, gen := c.mk()
			res, err := rn.Run(cfg, gen, c.refs)
			if err != nil {
				return err
			}
			if _, err := rn.EncodeStable(res); err != nil {
				return err
			}
		}
		pooled = append(pooled, time.Since(t0).Seconds())
		t0 = time.Now()
		if _, err := sweepPass(plan, p.want, 1, &buf); err != nil {
			return err
		}
		pass = append(pass, time.Since(t0).Seconds())
	}
	r.put("sweep.overhead_frac", 1-median(pooled)/median(pass))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := sweepPass(plan, p.want, 1, &buf); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	r.put("sweep.allocs_per_run", float64(m1.Mallocs-m0.Mallocs)/float64(len(cases)))

	// The real store, fsync and all: a diagnostic of the disk under the
	// run, not of the code.
	recs, err := sweep.Collect(plan, 1)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(p.in.dir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := sweep.Open(filepath.Join(dir, "campaign.jsonl"), false)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, rec := range recs {
		if err := store.Append(rec); err != nil {
			store.Close()
			return err
		}
	}
	r.put("sweep.store_append_us", float64(time.Since(t0).Nanoseconds())/1e3/float64(len(recs)))
	if err := store.Close(); err != nil {
		return err
	}

	// Two workers measure nothing on one CPU, so the metric is left out
	// there rather than filled with noise.
	if runtime.NumCPU() >= 2 {
		var two []float64
		for i := 0; i < max(3/p.scale, 1); i++ {
			t0 := time.Now()
			if _, err := sweepPass(plan, p.want, 2, &buf); err != nil {
				return err
			}
			two = append(two, time.Since(t0).Seconds())
		}
		r.put("sweep.scaling_w2", median(pass)/median(two))
	}
	return nil
}

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"twobit/internal/addr"
	"twobit/internal/obs"
	"twobit/internal/sim"
	"twobit/internal/system"
	"twobit/internal/workload"
)

// span is one traced interval. Times are nanoseconds since the tracer's
// epoch. Boundaries crossed too often to keep one by one — every
// Generator.Next, every kernel event — accumulate into one span per
// machine run whose Count is the number of calls and whose length is
// their summed time; such a span starts where its parent does.
type span struct {
	Name       string
	Start, End int64
	Parent     int // index into the tracer's spans; -1 for an iteration
	Iter       int
	Count      int64 // > 0 marks an accumulated span
}

func (s span) dur() int64 { return s.End - s.Start }

// Span names. A run's three phases tile it exactly; event bodies sit
// inside the event loop and generator calls inside event bodies.
const (
	spanIteration = "iteration"
	spanBuild     = "build"
	spanRun       = "run"
	spanPrologue  = "prologue"
	spanLoop      = "event-loop"
	spanEpilogue  = "epilogue"
	spanEncode    = "encode"
	spanBodies    = "event-bodies"
	spanGen       = "gen.next"
)

// tracer records spans from the harness's side of each layer boundary:
// around system.New, Machine.Run and EncodeStable directly, around every
// kernel event as the machine's sim.Hook, and around every
// Generator.Next as a shim on the generator handed to system.New. Both
// are passive — the traced pass must reproduce the untraced digests.
type tracer struct {
	epoch time.Time
	spans []span

	// Accumulators for the machine currently running.
	kernel      *sim.Kernel
	chained     *obs.KernelProfile // the hook system.New installed for cfg.Obs, which ours replaced
	inEvent     bool
	evStart     int64
	firstEv     int64
	lastEv      int64
	events      int64
	bodyNS      int64
	genCalls    int64
	genNS       int64
	peakPending int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now reads the monotonic clock; time.Since on a monotonic epoch is the
// cheapest reading the standard library offers.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name string, parent, iter int) int {
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Iter: iter})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = t.now() }

func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// BeforeEvent implements sim.Hook.
func (t *tracer) BeforeEvent(at sim.Time) {
	t.chained.BeforeEvent(at)
	// The event being dispatched has already left the queue.
	if p := t.kernel.Pending() + 1; p > t.peakPending {
		t.peakPending = p
	}
	t.inEvent = true
	t.evStart = t.now()
	if t.events == 0 {
		t.firstEv = t.evStart
	}
}

// AfterEvent implements sim.Hook.
func (t *tracer) AfterEvent(at sim.Time) {
	t.lastEv = t.now()
	t.bodyNS += t.lastEv - t.evStart
	t.events++
	t.inEvent = false
	t.chained.AfterEvent(at)
}

// timedGen is the shim around the generator handed to system.New. Calls
// made while the machine issues each processor's first reference fall
// in the prologue span and are left untimed.
type timedGen struct {
	inner workload.Generator
	t     *tracer
}

func (g *timedGen) Blocks() int { return g.inner.Blocks() }

func (g *timedGen) Next(proc int) addr.Ref {
	if !g.t.inEvent {
		return g.inner.Next(proc)
	}
	t0 := g.t.now()
	ref := g.inner.Next(proc)
	g.t.genNS += g.t.now() - t0
	g.t.genCalls++
	return ref
}

// runCase is runCase (measure.go) with every layer boundary recorded.
func (t *tracer) runCase(c machineCase, parent, iter int) (caseResult, error) {
	cfg, gen := c.mk()
	t.inEvent, t.events, t.bodyNS, t.genCalls, t.genNS = false, 0, 0, 0, 0

	b := t.begin(spanBuild, parent, iter)
	m, err := system.New(cfg, &timedGen{inner: gen, t: t})
	if err != nil {
		return caseResult{}, err
	}
	t.kernel = m.Kernel()
	t.chained = obs.NewKernelProfile(cfg.Obs) // same recorder, same series: nil and a no-op without one
	m.Kernel().SetHook(t)
	t.end(b)

	r := t.begin(spanRun, parent, iter)
	res, err := m.Run(c.refs)
	t.end(r)
	if err != nil {
		return caseResult{}, err
	}
	run := t.spans[r]
	t.add(span{Name: spanPrologue, Start: run.Start, End: t.firstEv, Parent: r, Iter: iter})
	loop := t.add(span{Name: spanLoop, Start: t.firstEv, End: t.lastEv, Parent: r, Iter: iter})
	t.add(span{Name: spanEpilogue, Start: t.lastEv, End: run.End, Parent: r, Iter: iter})
	bodies := t.add(span{Name: spanBodies, Start: t.firstEv, End: t.firstEv + t.bodyNS, Parent: loop, Iter: iter, Count: t.events})
	t.add(span{Name: spanGen, Start: t.firstEv, End: t.firstEv + t.genNS, Parent: bodies, Iter: iter, Count: t.genCalls})

	e := t.begin(spanEncode, parent, iter)
	enc, err := res.EncodeStable()
	sum := sha256.Sum256(enc)
	t.end(e)
	if err != nil {
		return caseResult{}, err
	}
	return caseResult{res: res, events: m.Kernel().Processed(), sum: sum, wall: time.Duration(t.spans[e].End - t.spans[b].Start)}, nil
}

// iteration traces one iteration of a workload and holds it to want.
func (t *tracer) iteration(cases []machineCase, want []digest, iter int) error {
	it := t.begin(spanIteration, -1, iter)
	defer t.end(it)
	for i, c := range cases {
		r, err := t.runCase(c, it, iter)
		if err != nil {
			return fmt.Errorf("traced %s: %w", c.name, err)
		}
		if r.sum != want[i] {
			return fmt.Errorf("traced %s: results digest differs from the untraced run: shim or hook is not passive", c.name)
		}
	}
	return nil
}

// selfTimes returns each span's self time: its length minus the part
// its child spans cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// spanSums adds up one iteration's spans by name.
type spanSums struct {
	dur   map[string]float64 // ns
	count map[string]float64
}

// sumByIteration groups the spans by iteration id.
func sumByIteration(spans []span) []spanSums {
	var out []spanSums
	for _, s := range spans {
		for len(out) <= s.Iter {
			out = append(out, spanSums{map[string]float64{}, map[string]float64{}})
		}
		out[s.Iter].dur[s.Name] += float64(s.dur())
		out[s.Iter].count[s.Name] += float64(s.Count)
	}
	return out
}

// calibrateClock measures what one tracer.now() costs, as the median of
// batches read back to back.
func calibrateClock() float64 {
	t := newTracer()
	const batch = 1000
	var per []float64
	for i := 0; i < 50; i++ {
		t0 := t.now()
		for j := 0; j < batch; j++ {
			t.now()
		}
		per = append(per, float64(t.now()-t0)/(batch+1))
	}
	return median(per)
}

// traceMetrics derives the traced-pass metrics: per iteration first,
// then the median over iterations. clock is the cost of one clock
// reading; two bracket every event and every generator call, one inside
// the bracketed interval and one outside it.
func traceMetrics(r *report, spans []span, machines float64, clock float64) {
	var next, dispatch, body, build, prologue, epilogue, encode, accounted []float64
	for _, s := range sumByIteration(spans) {
		e, g := s.count[spanBodies], s.count[spanGen]
		next = append(next, s.dur[spanGen]/g-clock)
		dispatch = append(dispatch, (s.dur[spanLoop]-s.dur[spanBodies])/e-clock)
		body = append(body, (s.dur[spanBodies]-s.dur[spanGen]-clock*(g+e))/e)
		build = append(build, s.dur[spanBuild]/machines/1e3)
		prologue = append(prologue, s.dur[spanPrologue]/machines/1e3)
		epilogue = append(epilogue, s.dur[spanEpilogue]/machines/1e3)
		encode = append(encode, s.dur[spanEncode]/machines/1e3)
		// generator + dispatch + bodies + clock readings are the event
		// loop, by the three lines above; with the phases around it they
		// must add up to the iteration, or the harness lost time between
		// spans.
		accounted = append(accounted, (s.dur[spanBuild]+s.dur[spanPrologue]+s.dur[spanLoop]+s.dur[spanEpilogue]+s.dur[spanEncode])/s.dur[spanIteration])
	}
	r.put("workload.next_ns", median(next))
	r.put("sim.dispatch_ns", median(dispatch))
	r.put("proto.event_body_ns", median(body))
	r.put("system.build_us", median(build))
	r.put("system.prologue_us", median(prologue))
	r.put("system.epilogue_us", median(epilogue))
	r.put("system.encode_us", median(encode))
	r.put("harness.clock_ns", clock)
	r.put("harness.accounted_frac", median(accounted))
}

// writeChromeTrace writes the spans as Chrome trace_event JSON (load in
// chrome://tracing or ui.perfetto.dev). Real spans go on thread 1;
// accumulated spans, whose position inside their parent is synthetic,
// on thread 2.
func writeChromeTrace(path, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	w := bufio.NewWriter(f)
	self := selfTimes(spans)
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":%q},\"traceEvents\":[\n", workload)
	for i, s := range spans {
		tid := 1
		args := map[string]any{"iter": s.Iter, "self_us": float64(self[i]) / 1e3}
		if s.Parent >= 0 {
			args["parent"] = spans[s.Parent].Name
		}
		if s.Count > 0 {
			tid = 2
			args["count"] = s.Count
		}
		ev, err := json.Marshal(map[string]any{
			"name": s.Name, "ph": "X", "pid": 1, "tid": tid,
			"ts": float64(s.Start) / 1e3, "dur": float64(s.dur()) / 1e3, "args": args,
		})
		if err != nil {
			return err
		}
		if i > 0 {
			w.WriteString(",\n")
		}
		w.Write(ev)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

package sweep

import (
	"encoding/json"
	"fmt"
	"sync"

	"twobit/internal/obs"
	"twobit/internal/system"
)

// Record is one completed run: the point's coordinates plus either the
// stable-encoded results or the simulation's error. The JSON field order
// is fixed by this struct, and Results carries the system wire schema
// verbatim, so a record marshals to the same bytes on every execution.
type Record struct {
	RunID     int             `json:"run_id"`
	Protocol  string          `json:"protocol"`
	Net       string          `json:"net"`
	Q         float64         `json:"q"`
	W         float64         `json:"w"`
	Procs     int             `json:"procs"`
	Replicate int             `json:"replicate"`
	Scenario  string          `json:"scenario,omitempty"`
	Seed      uint64          `json:"seed"`
	Err       string          `json:"err,omitempty"`
	Results   json.RawMessage `json:"results,omitempty"`
}

// Decode returns the run's results (an error for records of failed runs).
func (r Record) Decode() (system.Results, error) {
	if r.Err != "" {
		return system.Results{}, fmt.Errorf("sweep: run %d failed: %s", r.RunID, r.Err)
	}
	return system.DecodeResults(r.Results)
}

// runners recycles worker Runners — and with them the pooled machine
// graphs, kernel heaps, oracle tables and encode buffers they own —
// across campaigns, so back-to-back executions (benchmark iterations,
// sweep resumes, CLI sessions driving several plans) construct
// machines only on first use. Sound because a Runner is
// goroutine-confined while checked out and Runner.Run restores all
// pooled state before every run.
var runners = sync.Pool{New: func() any { return system.NewRunner() }}

// testRunStall, when non-nil, is called by a worker just before it runs
// a point — a test hook for provoking worker skew (a stalled low run id
// with fast successors) against the re-sequencer's backpressure bound.
// Always nil outside tests.
var testRunStall func(Point)

// runPoint executes one hermetic simulation on rn's pooled state. A run
// that fails (deadlock, coherence violation, invariant violation)
// produces a record with Err set rather than aborting the campaign: the
// failure is itself a deterministic, reportable result.
func runPoint(p *Plan, pt Point, rn *system.Runner) Record {
	rec := Record{
		RunID:     pt.RunID,
		Protocol:  pt.Protocol.String(),
		Net:       pt.Net.String(),
		Q:         pt.Q,
		W:         pt.W,
		Procs:     pt.Procs,
		Replicate: pt.Replicate,
		Scenario:  pt.Scenario,
		Seed:      pt.Seed,
	}
	gen := p.generator(pt)
	cfg := p.Config(pt)
	if p.Obs || p.Spans || p.ObsWindow > 0 || p.ObsTopK > 0 {
		cfg.Obs = obs.New(0) // metrics only: no event ring in stored campaigns
		if p.Spans {
			cfg.Obs.EnableSpans(0) // matrix only: no per-span retention
		}
		if p.ObsWindow > 0 {
			cfg.Obs.EnableWindows(p.ObsWindow)
		}
		if p.ObsTopK > 0 {
			cfg.Obs.EnableContention(p.ObsTopK)
		}
	}
	res, err := rn.Run(cfg, gen, p.RefsPerProc)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	enc, err := rn.EncodeStable(res)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.Results = enc
	return rec
}

// divergence names the first coordinate on which rec differs from pt,
// or "" when the record matches the point.
func divergence(rec Record, pt Point) string {
	switch {
	case rec.Seed != pt.Seed:
		return "seed"
	case rec.Protocol != pt.Protocol.String():
		return "protocol"
	case rec.Net != pt.Net.String():
		return "net"
	case rec.Scenario != pt.Scenario:
		return "scenario"
	case rec.Q != pt.Q:
		return "q"
	case rec.W != pt.W:
		return "w"
	case rec.Procs != pt.Procs:
		return "procs"
	case rec.Replicate != pt.Replicate:
		return "replicate"
	}
	return ""
}

// matchRecord verifies one stored record against the plan point its run
// id expands to, naming the diverging coordinate in the error.
func matchRecord(rec Record, pt Point) error {
	field := divergence(rec, pt)
	if field == "" {
		return nil
	}
	return fmt.Errorf("sweep: store record %d (%s/%s scen=%q q=%g w=%g n=%d rep=%d seed=%d) was produced by a different plan (%s diverges): run %d expands to %s/%s scen=%q q=%g w=%g n=%d rep=%d seed=%d",
		rec.RunID, rec.Protocol, rec.Net, rec.Scenario, rec.Q, rec.W, rec.Procs, rec.Replicate, rec.Seed,
		field, pt.RunID, pt.Protocol, pt.Net, pt.Scenario, pt.Q, pt.W, pt.Procs, pt.Replicate, pt.Seed)
}

// CheckPrefix verifies that a store's checkpointed records are a prefix
// of this plan's expansion — the guard against resuming a store that a
// different plan (other axes, other root seed) produced, which would
// silently mix foreign results into the aggregate.
func CheckPrefix(p *Plan, recs []Record) error { return checkSlice(p, Whole, recs) }

// checkSlice is CheckPrefix for the records of slice sl: the k-th must
// be run sl.I + k·sl.N and match the point that id expands to.
func checkSlice(p *Plan, sl Slice, recs []Record) error {
	points, err := p.Points()
	if err != nil {
		return err
	}
	if size := sl.Size(len(points)); len(recs) > size {
		return fmt.Errorf("sweep: store holds %d runs but slice %v of the plan expands to %d", len(recs), sl, size)
	}
	for k, rec := range recs {
		if id := sl.id(k); rec.RunID != id {
			return fmt.Errorf("sweep: store record %d is out of sequence (run id %d, want %d)", k, rec.RunID, id)
		}
		if err := matchRecord(rec, points[rec.RunID]); err != nil {
			return err
		}
	}
	return nil
}

// Execute runs the plan's points with ids ≥ startAt on a pool of workers
// and hands each finished record to emit in strictly increasing run-id
// order — the property that makes parallel output byte-identical to
// workers=1 output. emit is called from the Execute goroutine only. A
// non-nil error from emit aborts the campaign after the in-flight runs
// drain.
func Execute(p *Plan, workers, startAt int, emit func(Record) error) error {
	return ExecuteObserved(p, Whole, workers, startAt, emit, nil)
}

// resequenceLimit bounds the records the re-sequencer may hold: jobs in
// flight plus completed-but-unemitted records never exceed it, so a
// stalled low run id cannot let faster workers accumulate output without
// limit. Twice the pool keeps every worker busy while the oldest run
// drags; the +2 keeps a 1-worker pool pipelined.
func resequenceLimit(workers int) int { return 2*workers + 2 }

// ExecuteObserved is Execute for slice sl of the plan, with a telemetry
// publisher: startAt counts the slice's runs already done (a Store's
// Next), and emit sees the rest in run-id order. prog (which may be nil
// for none) sees every run start, completion and ordered emission.
// Telemetry is strictly wall-clock bookkeeping about the worker pool —
// it never feeds back into a run, so an observed campaign produces
// byte-identical records.
func ExecuteObserved(p *Plan, sl Slice, workers, startAt int, emit func(Record) error, prog *Progress) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if err := sl.check(); err != nil {
		return err
	}
	points, err := p.Points()
	if err != nil {
		return err
	}
	size := sl.Size(len(points))
	if startAt < 0 || startAt > size {
		return fmt.Errorf("sweep: resume offset %d outside slice %v of a plan of %d runs", startAt, sl, len(points))
	}
	runs := size - startAt
	if workers < 1 {
		workers = 1
	}
	if workers > runs {
		workers = runs
	}
	if runs == 0 {
		return nil
	}

	jobs := make(chan Point)
	results := make(chan Record, workers)
	stop := make(chan struct{}) // closed on emit error: stop feeding new runs
	// Backpressure tokens: the feeder takes one per job, the
	// re-sequencer returns one per record it sequences out, so at most
	// resequenceLimit runs are past the feeder but short of the store.
	tokens := make(chan struct{}, resequenceLimit(workers))
	prog.begin(workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rn := runners.Get().(*system.Runner)
			defer runners.Put(rn)
			for pt := range jobs {
				prog.noteRunStart(w)
				if testRunStall != nil {
					testRunStall(pt)
				}
				rec := runPoint(p, pt, rn)
				prog.noteRunDone(w, rec.Err != "")
				results <- rec
			}
		}(i)
	}
	go func() {
		defer close(jobs)
		for id := sl.id(startAt); id < len(points); id += sl.N {
			select {
			case tokens <- struct{}{}:
			case <-stop:
				return
			}
			select {
			case jobs <- points[id]:
			case <-stop:
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Re-sequencer: workers finish out of order; hold records until the
	// next expected id arrives, then emit the contiguous run.
	pending := make(map[int]Record, resequenceLimit(workers))
	next := sl.id(startAt)
	var emitErr error
	for rec := range results {
		pending[rec.RunID] = rec
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			<-tokens
			if emitErr == nil {
				if emitErr = emit(r); emitErr != nil {
					close(stop)
				} else {
					prog.noteEmitted()
				}
			}
			next += sl.N
		}
	}
	if emitErr != nil {
		return emitErr
	}
	if len(pending) != 0 {
		return fmt.Errorf("sweep: %d records never sequenced (first gap at run %d)", len(pending), next)
	}
	return nil
}

// Collect executes the whole plan in memory and returns the ordered
// records — the convenience entry point for callers that do not need a
// persistent store (twobit tables, benchmarks, tests).
func Collect(p *Plan, workers int) ([]Record, error) {
	recs := make([]Record, 0, p.Size())
	err := Execute(p, workers, 0, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

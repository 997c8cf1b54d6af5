package sweep

import (
	"sync"
	"time"
)

// Progress is the campaign's wall-clock telemetry publisher: workers
// report run completions, the re-sequencer reports emissions, and an
// observer (twobit sweep's expvar endpoint, a test) reads frozen Status
// snapshots at any moment. This is the one corner of the sweep package
// that deals in wall time rather than sim time — it measures the
// orchestrator itself (throughput, ETA, worker utilization), never the
// simulation, so it cannot perturb results: runs do not read it, and
// the untelemetered campaign passes a nil *Progress, on which every
// method is safe and free.
//
// All methods are safe for concurrent use.
type Progress struct {
	mu        sync.Mutex
	name      string
	total     int
	completed int
	emitted   int
	failed    int
	started   bool
	start     time.Time
	workers   []workerStat
}

type workerStat struct {
	runs    int
	busy    time.Duration
	runFrom time.Time // zero when idle
}

// WorkerStatus is one worker's frozen utilization reading.
type WorkerStatus struct {
	Runs        int     `json:"runs"`
	BusySeconds float64 `json:"busy_seconds"`
	Utilization float64 `json:"utilization"`
}

// Status is one frozen telemetry reading, shaped for expvar JSON.
type Status struct {
	Campaign       string  `json:"campaign"`
	Total          int     `json:"total"`
	Completed      int     `json:"completed"`
	Emitted        int     `json:"emitted"`
	Failed         int     `json:"failed"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	RunsPerSecond  float64 `json:"runs_per_second"`
	ETASeconds     float64 `json:"eta_seconds"`
	// CheckpointLag is completed − emitted: runs finished by a worker
	// but still held by the re-sequencer behind a slower earlier run id,
	// hence not yet durable in the store.
	CheckpointLag int            `json:"checkpoint_lag"`
	Workers       []WorkerStatus `json:"workers"`
}

// NewProgress returns a publisher for a campaign of total runs.
func NewProgress(campaign string, total int) *Progress {
	return &Progress{name: campaign, total: total}
}

// begin stamps the campaign start and sizes the worker table; idempotent
// so resumed campaigns keep their original start time.
func (pr *Progress) begin(workers int) {
	if pr == nil {
		return
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if !pr.started {
		pr.started = true
		pr.start = time.Now() //lint:allow determinism wall-clock campaign telemetry measures the orchestrator, not sim time
	}
	if len(pr.workers) < workers {
		grown := make([]workerStat, workers)
		copy(grown, pr.workers)
		pr.workers = grown
	}
}

// noteRunStart records that worker w picked up a run.
func (pr *Progress) noteRunStart(w int) {
	if pr == nil {
		return
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if w >= 0 && w < len(pr.workers) {
		pr.workers[w].runFrom = time.Now() //lint:allow determinism wall-clock campaign telemetry measures the orchestrator, not sim time
	}
}

// noteRunDone records that worker w finished a run.
func (pr *Progress) noteRunDone(w int, failed bool) {
	if pr == nil {
		return
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.completed++
	if failed {
		pr.failed++
	}
	if w >= 0 && w < len(pr.workers) {
		ws := &pr.workers[w]
		ws.runs++
		if !ws.runFrom.IsZero() {
			ws.busy += time.Since(ws.runFrom)
			ws.runFrom = time.Time{}
		}
	}
}

// noteEmitted records that one record was handed to emit, i.e. became
// durable (appended to the store) in run-id order.
func (pr *Progress) noteEmitted() {
	if pr == nil {
		return
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.emitted++
}

// Status returns a frozen reading. Safe on nil (all zeros).
func (pr *Progress) Status() Status {
	if pr == nil {
		return Status{}
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	st := Status{
		Campaign:      pr.name,
		Total:         pr.total,
		Completed:     pr.completed,
		Emitted:       pr.emitted,
		Failed:        pr.failed,
		CheckpointLag: pr.completed - pr.emitted,
	}
	if pr.started {
		// One clock reading for the whole snapshot: a worker's run starts
		// no earlier than the campaign, so against the same now its busy
		// time can never exceed the elapsed time.
		now := time.Now() //lint:allow determinism wall-clock campaign telemetry measures the orchestrator, not sim time
		st.ElapsedSeconds = now.Sub(pr.start).Seconds()
		if st.ElapsedSeconds > 0 {
			st.RunsPerSecond = float64(pr.completed) / st.ElapsedSeconds
		}
		if st.RunsPerSecond > 0 {
			st.ETASeconds = float64(pr.total-pr.completed) / st.RunsPerSecond
		}
		for _, ws := range pr.workers {
			busy := ws.busy
			if !ws.runFrom.IsZero() {
				busy += now.Sub(ws.runFrom)
			}
			u := 0.0
			if st.ElapsedSeconds > 0 {
				u = busy.Seconds() / st.ElapsedSeconds
			}
			st.Workers = append(st.Workers, WorkerStatus{
				Runs: ws.runs, BusySeconds: busy.Seconds(), Utilization: u,
			})
		}
	}
	return st
}

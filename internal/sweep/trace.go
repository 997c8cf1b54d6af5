package sweep

import (
	"fmt"

	"twobit/internal/obs"
	"twobit/internal/system"
)

// TracePoint re-executes one run of a plan with the given recorder
// attached and returns its results. Because every run is hermetic —
// seeded only by the plan's root seed and the run id — the replay
// reproduces the stored campaign's run exactly; the recorder observes
// it without perturbing it, so the returned results (minus the Obs
// snapshot) match the stored record byte for byte. This is the engine
// behind twobit obs -run: campaigns store only numbers, and traces
// are recreated on demand from the plan.
func TracePoint(p *Plan, runID int, rec *obs.Recorder) (system.Results, error) {
	p.Normalize()
	if err := p.Validate(); err != nil {
		return system.Results{}, err
	}
	points, err := p.Points()
	if err != nil {
		return system.Results{}, err
	}
	if runID < 0 || runID >= len(points) {
		return system.Results{}, fmt.Errorf("sweep: run %d outside plan %q of %d runs", runID, p.Name, len(points))
	}
	pt := points[runID]
	gen := p.generator(pt)
	cfg := p.Config(pt)
	cfg.Obs = rec
	res, err := system.NewRunner().Run(cfg, gen, p.RefsPerProc)
	if err != nil {
		return system.Results{}, fmt.Errorf("sweep: replaying run %d: %w", runID, err)
	}
	return res, nil
}

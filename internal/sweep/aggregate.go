package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"twobit/internal/report"
	"twobit/internal/system"
)

// MetricFunc extracts one scalar from a run's results.
type MetricFunc func(system.Results) float64

// metrics names the extractable scalars, keyed the way twobit sweep -metric
// spells them. An ordered slice, not a map: this package sits in the
// determinism analyzer's scope and never ranges over maps.
var metrics = []struct {
	name string
	fn   MetricFunc
}{
	{"broadcasts", func(r system.Results) float64 { return float64(r.Broadcasts) }},
	{"cmds_per_ref", func(r system.Results) float64 { return r.CommandsPerCachePerRef }},
	{"ctrl_util", func(r system.Results) float64 { return r.CtrlUtilization }},
	{"cycles_per_ref", func(r system.Results) float64 { return r.CyclesPerRef }},
	{"latency_mean", func(r system.Results) float64 { return r.LatencyMean }},
	{"latency_p99", func(r system.Results) float64 { return float64(r.LatencyP99) }},
	{"miss_ratio", func(r system.Results) float64 { return r.MissRatio }},
	{"stolen_per_ref", func(r system.Results) float64 { return r.StolenCyclesPerRef }},
	{"tb_hit_ratio", func(r system.Results) float64 { return r.TBHitRatio }},
	{"useless_per_ref", func(r system.Results) float64 { return r.UselessPerCachePerRef }},
}

// Metric resolves a metric name.
func Metric(name string) (MetricFunc, error) {
	for _, m := range metrics {
		if m.name == name {
			return m.fn, nil
		}
	}
	return nil, fmt.Errorf("sweep: unknown metric %q (have %s)", name, strings.Join(MetricNames(), ", "))
}

// MetricNames lists the known metrics, sorted.
func MetricNames() []string {
	names := make([]string, 0, len(metrics))
	for _, m := range metrics {
		names = append(names, m.name)
	}
	return names
}

// GridSet is the aggregate of one (protocol, net, scenario, q) section
// of a campaign: grids of the per-cell mean, minimum and maximum of the
// metric across replicates, rows w and columns n — the shape of the
// paper's tables. Scenario is "" for classic-generator campaigns.
type GridSet struct {
	Protocol string
	Net      string
	Scenario string
	Q        float64
	Mean     report.Grid
	Min      report.Grid
	Max      report.Grid
}

// Aggregate folds a campaign's records into one GridSet per (protocol,
// net, scenario, q) section, in plan-axis order. Failed runs are
// skipped; a cell whose every replicate failed reports 0 and the
// returned failure count is non-zero.
func Aggregate(p *Plan, recs []Record, metricName string) ([]GridSet, int, error) {
	metric, err := Metric(metricName)
	if err != nil {
		return nil, 0, err
	}
	points, err := p.Points()
	if err != nil {
		return nil, 0, err
	}
	if len(recs) != len(points) {
		return nil, 0, fmt.Errorf("sweep: aggregating %d records against a plan of %d runs (campaign incomplete?)",
			len(recs), len(points))
	}

	rows := make([]string, len(p.Ws))
	for i, w := range p.Ws {
		rows[i] = trimFloat(w)
	}
	cols := make([]string, len(p.Procs))
	for i, n := range p.Procs {
		cols[i] = strconv.Itoa(n)
	}
	wIndex := make(map[float64]int, len(p.Ws))
	for i, w := range p.Ws {
		wIndex[w] = i
	}
	nIndex := make(map[int]int, len(p.Procs))
	for i, n := range p.Procs {
		nIndex[n] = i
	}

	type cellAgg struct {
		sum, min, max float64
		n             int
	}
	newCells := func() [][]cellAgg {
		c := make([][]cellAgg, len(p.Ws))
		for i := range c {
			c[i] = make([]cellAgg, len(p.Procs))
		}
		return c
	}

	type sectionKey struct {
		protocol, net, scenario string
		q                       float64
	}
	aggs := make(map[sectionKey][][]cellAgg)
	var order []sectionKey
	for _, ps := range p.Protocols {
		for _, ns := range p.Nets {
			for _, scen := range p.scenarioAxis() {
				for _, q := range p.Qs {
					k := sectionKey{ps, ns, scen.Scenario, q}
					aggs[k] = newCells()
					order = append(order, k)
				}
			}
		}
	}

	failed := 0
	for i, rec := range recs {
		if rec.Err != "" {
			failed++
			continue
		}
		res, err := rec.Decode()
		if err != nil {
			return nil, 0, err
		}
		pt := points[i]
		cells, ok := aggs[sectionKey{pt.Protocol.String(), pt.Net.String(), pt.Scenario, pt.Q}]
		if !ok {
			return nil, 0, fmt.Errorf("sweep: record %d does not belong to any plan section", i)
		}
		c := &cells[wIndex[pt.W]][nIndex[pt.Procs]]
		v := metric(res)
		if c.n == 0 || v < c.min {
			c.min = v
		}
		if c.n == 0 || v > c.max {
			c.max = v
		}
		c.sum += v
		c.n++
	}

	out := make([]GridSet, 0, len(order))
	for _, k := range order {
		cells := aggs[k]
		gs := GridSet{Protocol: k.protocol, Net: k.net, Scenario: k.scenario, Q: k.q}
		title := fmt.Sprintf("%s [%s] %s q=%s", p.Name, metricName, k.protocol, trimFloat(k.q))
		if len(p.Nets) > 1 {
			title += " net=" + k.net
		}
		if k.scenario != "" {
			title += " scen=" + k.scenario
		}
		mk := func(kind string, pick func(cellAgg) float64) report.Grid {
			g := report.Grid{
				Title:    title + " (" + kind + ")",
				RowLabel: "w",
				ColLabel: "n",
				Rows:     rows,
				Cols:     cols,
				Cells:    make([][]float64, len(rows)),
				Decimals: 3,
			}
			for i := range rows {
				g.Cells[i] = make([]float64, len(cols))
				for j := range cols {
					if cells[i][j].n > 0 {
						g.Cells[i][j] = pick(cells[i][j])
					}
				}
			}
			return g
		}
		gs.Mean = mk("mean", func(c cellAgg) float64 { return c.sum / float64(c.n) })
		gs.Min = mk("min", func(c cellAgg) float64 { return c.min })
		gs.Max = mk("max", func(c cellAgg) float64 { return c.max })
		out = append(out, gs)
	}
	return out, failed, nil
}

// trimFloat renders a float compactly for labels (0.1 not 0.100000).
func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

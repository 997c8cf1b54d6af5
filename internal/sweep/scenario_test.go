package sweep

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"twobit/internal/tracegen"
)

func scenarioPlan() *Plan {
	p := &Plan{
		Name:        "scen",
		Protocols:   []string{"two-bit"},
		Qs:          []float64{0.1, 0.3},
		Ws:          []float64{0.3},
		Procs:       []int{4},
		Replicates:  2,
		RefsPerProc: 200,
		RootSeed:    13,
		Scenarios: []tracegen.Spec{
			{Name: "kv-serving"},
			{Name: "flash-crowd", Keys: 1 << 10},
		},
	}
	p.Normalize()
	return p
}

func TestScenarioAxisExpansion(t *testing.T) {
	p := scenarioPlan()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Size() != 1*1*2*2*1*1*2 {
		t.Fatalf("Size = %d", p.Size())
	}
	points, err := p.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != p.Size() {
		t.Fatalf("expanded %d points for size %d", len(points), p.Size())
	}
	// Scenario nests between net and q: first half kv-serving, second half
	// flash-crowd; every point carries a scenario name.
	for i, pt := range points {
		want := "kv-serving"
		if i >= len(points)/2 {
			want = "flash-crowd"
		}
		if pt.Scenario != want {
			t.Fatalf("point %d scenario %q, want %q", i, pt.Scenario, want)
		}
	}
}

func TestScenarioRunIDsStableWithoutScenarios(t *testing.T) {
	// The sentinel axis must leave scenario-free plans bit-identical:
	// same ids, same seeds, no scenario field in records.
	p := ExamplePlan()
	points, err := p.Points()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		if pt.Scenario != "" || pt.scenario != -1 {
			t.Fatalf("scenario-free plan expanded scenario point %+v", pt)
		}
	}
	rec := Record{RunID: 1, Protocol: "two-bit", Net: "crossbar"}
	out, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(out), "scenario") {
		t.Fatalf("empty scenario serialized: %s", out)
	}
}

func TestScenarioCampaignDeterministicAcrossWorkers(t *testing.T) {
	p := scenarioPlan()
	serial, err := Collect(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Collect(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("scenario campaign differs between workers=1 and workers=4")
	}
	for _, rec := range serial {
		if rec.Err != "" {
			t.Fatalf("run %d failed: %s", rec.RunID, rec.Err)
		}
		if rec.Scenario == "" {
			t.Fatalf("run %d lost its scenario label", rec.RunID)
		}
	}
}

func TestScenarioSeedsVaryReplicates(t *testing.T) {
	// Replicates of the same scenario point must draw different seeds
	// (the hermetic per-run seed overrides the spec's).
	p := scenarioPlan()
	recs, err := Collect(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Seed == recs[1].Seed {
		t.Fatal("replicates share a seed")
	}
	if bytes.Equal(recs[0].Results, recs[1].Results) {
		t.Fatal("replicates produced identical results — seed not applied")
	}
}

func TestScenarioCheckPrefixCatchesMismatch(t *testing.T) {
	p := scenarioPlan()
	recs, err := Collect(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPrefix(p, recs[:3]); err != nil {
		t.Fatal(err)
	}
	bad := make([]Record, 3)
	copy(bad, recs[:3])
	bad[2].Scenario = "churn"
	if err := CheckPrefix(p, bad); err == nil {
		t.Fatal("scenario mismatch accepted")
	}
}

func TestScenarioValidateRejectsBadSpecs(t *testing.T) {
	p := scenarioPlan()
	p.Scenarios = append(p.Scenarios, tracegen.Spec{Name: "kv-serving"})
	if err := p.Validate(); err == nil {
		t.Fatal("duplicate scenario accepted")
	}
	p = scenarioPlan()
	p.Scenarios = []tracegen.Spec{{Name: "not-a-preset", Procs: 4}}
	if err := p.Validate(); err == nil {
		t.Fatal("incomplete non-preset scenario accepted")
	}
	p = scenarioPlan()
	p.Scenarios = []tracegen.Spec{{}}
	if err := p.Validate(); err == nil {
		t.Fatal("nameless scenario accepted")
	}
}

func TestScenarioAggregateSections(t *testing.T) {
	p := scenarioPlan()
	recs, err := Collect(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	grids, failed, err := Aggregate(p, recs, "miss_ratio")
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("%d failed runs", failed)
	}
	// protocols × nets × scenarios × qs sections.
	if len(grids) != 1*1*2*2 {
		t.Fatalf("got %d sections", len(grids))
	}
	for i, g := range grids {
		wantScen := "kv-serving"
		if i >= 2 {
			wantScen = "flash-crowd"
		}
		if g.Scenario != wantScen {
			t.Fatalf("section %d scenario %q, want %q", i, g.Scenario, wantScen)
		}
		if !strings.Contains(g.Mean.Title, "scen="+wantScen) {
			t.Fatalf("section %d title %q lacks scenario", i, g.Mean.Title)
		}
		if g.Mean.Cells[0][0] <= 0 {
			t.Fatalf("section %d has empty cells", i)
		}
	}
}

func TestScenarioPlanRoundTripsJSON(t *testing.T) {
	p := scenarioPlan()
	out, err := p.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadPlan(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Scenarios) != 2 || back.Scenarios[1].Keys != 1<<10 {
		t.Fatalf("scenarios lost in round trip: %+v", back.Scenarios)
	}
}

package system

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"twobit/internal/cache"
	"twobit/internal/network"
	"twobit/internal/obs"
	"twobit/internal/proto"
	"twobit/internal/stats"
)

// goldenResults builds a synthetic Results with every field set to a
// distinctive value, so the golden file pins the complete wire schema.
func goldenResults() Results {
	return Results{
		Protocol: TwoBit,
		Procs:    2,
		Cycles:   1234,
		Refs:     400,
		Cache: []proto.CacheSideStats{{
			References:           stats.Counter(200),
			Reads:                stats.Counter(150),
			Writes:               stats.Counter(50),
			CommandsReceived:     stats.Counter(31),
			UselessCommands:      stats.Counter(7),
			InvalidationsApplied: stats.Counter(11),
			QueriesAnswered:      stats.Counter(13),
			MRequestsSent:        stats.Counter(17),
			MRequestsConverted:   stats.Counter(3),
			Retries:              stats.Counter(2),
			EvictionsClean:       stats.Counter(19),
			EvictionsDirty:       stats.Counter(5),
			ExclusiveWrites:      stats.Counter(1),
		}},
		Store: []cache.Stats{{
			Hits:         stats.Counter(180),
			Misses:       stats.Counter(20),
			Evictions:    stats.Counter(24),
			WritebackEv:  stats.Counter(6),
			SnoopLookups: stats.Counter(31),
			SnoopHits:    stats.Counter(24),
			StolenCycles: stats.Counter(55),
		}},
		Ctrl: []proto.CtrlStats{{
			Requests:         stats.Counter(40),
			ReadMisses:       stats.Counter(15),
			WriteMisses:      stats.Counter(5),
			MRequests:        stats.Counter(17),
			Ejects:           stats.Counter(24),
			Broadcasts:       stats.Counter(9),
			DirectedSends:    stats.Counter(21),
			DeletedMRequests: stats.Counter(1),
			MGrantDenied:     stats.Counter(2),
			TBHits:           stats.Counter(33),
			TBMisses:         stats.Counter(44),
			DMAReads:         stats.Counter(3),
			DMAWrites:        stats.Counter(4),
			BusyCycles:       stats.Counter(600),
			MaxQueue:         5,
		}},
		Net: network.Stats{
			Messages:        stats.Counter(500),
			ControlMessages: stats.Counter(300),
			DataMessages:    stats.Counter(200),
			Broadcasts:      stats.Counter(9),
			BroadcastCopies: stats.Counter(18),
			BusBusyCycles:   stats.Counter(77),
			StageConflicts:  stats.Counter(88),
		},
		CommandsPerCachePerRef: 0.155,
		UselessPerCachePerRef:  0.035,
		StolenCyclesPerRef:     0.275,
		MissRatio:              0.1,
		Broadcasts:             9,
		DirectedSends:          21,
		TBHitRatio:             0.4285714285714286,
		CyclesPerRef:           6.17,
		LatencyMean:            5.5,
		LatencyP50:             5,
		LatencyP99:             31,
		SharedLatencyMean:      8.25,
		CtrlUtilization:        0.4862,
		Obs: &obs.Snapshot{
			Counters: []obs.CounterValue{
				{Name: "cache0/refs", Value: 200},
				{Name: "ctrl0/broadcasts", Value: 9},
				{Name: "kernel/events", Value: 4321},
			},
			Hists: []obs.HistogramValue{
				{Name: "ctrl0/queue_depth", Width: 1, Count: 40, Sum: 35, Max: 5, Buckets: []uint64{18, 12, 6, 2, 1, 1}},
				{Name: "sys/ref_latency_cycles", Width: 8, Count: 400, Sum: 2200, Max: 31, Buckets: []uint64{350, 40, 8, 2}},
			},
		},
	}
}

// TestResultsGolden pins the stable wire schema byte for byte: a schema
// change (a json tag renamed, a field added or dropped) fails here, and
// TestWireTags fails on a field whose wire name would follow its Go name.
// Regenerate with UPDATE_GOLDEN=1 after an intentional schema change.
var update = os.Getenv("UPDATE_GOLDEN") != ""

func TestResultsGolden(t *testing.T) {
	got, err := goldenResults().EncodeStable()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "results_golden.json")
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (set UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if string(got)+"\n" != string(want) {
		t.Errorf("stable encoding drifted from golden file:\n  got  %s\n  want %s", got, want)
	}
}

// TestResultsGoldenWithoutObs pins backward compatibility: a run without
// a recorder must encode to exactly the bytes the schema produced before
// the observability layer existed, so stores written by older builds
// stay byte-comparable. The golden file is a frozen copy of the pre-obs
// results_golden.json and is deliberately NOT regenerated by
// UPDATE_GOLDEN.
func TestResultsGoldenWithoutObs(t *testing.T) {
	r := goldenResults()
	r.Obs = nil
	got, err := r.EncodeStable()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "results_golden_noobs.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got)+"\n" != string(want) {
		t.Errorf("uninstrumented encoding no longer matches the pre-obs schema:\n  got  %s\n  want %s", got, want)
	}
}

// TestResultsRoundTrip checks decode(encode(r)) == r for both the
// synthetic record and a real simulation's results.
func TestResultsRoundTrip(t *testing.T) {
	cases := map[string]Results{"golden": goldenResults()}

	m, err := New(DefaultConfig(TwoBit, 4), sharingGen(4, 7))
	if err != nil {
		t.Fatal(err)
	}
	real, err := m.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	cases["simulated"] = real

	for name, r := range cases {
		t.Run(name, func(t *testing.T) {
			enc, err := r.EncodeStable()
			if err != nil {
				t.Fatal(err)
			}
			back, err := DecodeResults(enc)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := fmt.Sprintf("%+v", r), fmt.Sprintf("%+v", back); a != b {
				t.Errorf("round trip changed the record:\n  in   %s\n  out  %s", a, b)
			}
			enc2, err := back.EncodeStable()
			if err != nil {
				t.Fatal(err)
			}
			if string(enc) != string(enc2) {
				t.Errorf("re-encoding is not byte-stable:\n  first  %s\n  second %s", enc, enc2)
			}
		})
	}
}

func TestParseProtocolAndNetKind(t *testing.T) {
	for p := TwoBit; p <= Software; p++ {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if _, err := ParseProtocol("nonsense"); err == nil {
		t.Error("ParseProtocol accepted an unknown name")
	}
	for k := CrossbarNet; k <= OmegaNet; k++ {
		got, err := ParseNetKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseNetKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if _, err := ParseNetKind("nonsense"); err == nil {
		t.Error("ParseNetKind accepted an unknown name")
	}
}

// TestWireTags walks Results' type graph and fails on any exported
// field without an explicit snake_case json tag, or on two fields of one
// struct with the same wire name. The tags are the schema: a field that
// fell back to its Go name would move the stored encoding on a rename.
func TestWireTags(t *testing.T) {
	snake := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice || typ.Kind() == reflect.Array {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || seen[typ] {
			return
		}
		seen[typ] = true
		names := map[string]string{}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			tag, ok := f.Tag.Lookup("json")
			name, _, _ := strings.Cut(tag, ",")
			switch {
			case !ok:
				t.Errorf("%s.%s has no json tag", typ, f.Name)
			case !snake.MatchString(name):
				t.Errorf("%s.%s: wire name %q is not snake_case", typ, f.Name, name)
			case names[name] != "":
				t.Errorf("%s: fields %s and %s share the wire name %q", typ, names[name], f.Name, name)
			}
			names[name] = f.Name
			walk(f.Type)
		}
	}
	walk(reflect.TypeOf(Results{}))
	if len(seen) < 11 { // Results, its four counter structs and the obs snapshot's six
		t.Errorf("walked %d struct types; the walk lost its way", len(seen))
	}
}

// TestJSONIsTheStableSchema: Results.JSON, what twobit sim -json prints,
// is EncodeStable's schema, indented.
func TestJSONIsTheStableSchema(t *testing.T) {
	js, err := goldenResults().JSON()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := goldenResults().EncodeStable()
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, []byte(js)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact.Bytes(), enc) {
		t.Errorf("JSON, compacted, differs from EncodeStable:\n  JSON    %s\n  stable  %s", compact.Bytes(), enc)
	}
}

// TestDecodeRefusesUnknownNames: the enums travel by name, and a name
// the decoder does not know is a named error, not a zero value.
func TestDecodeRefusesUnknownNames(t *testing.T) {
	for _, tc := range []struct{ data, want string }{
		{`{"protocol":"mesi"}`, `system: unknown protocol "mesi"`},
		{`{"protocol":"two-bit","obs":{"series":[{"name":"x","kind":"median"}]}}`, `obs: unknown series kind "median"`},
	} {
		_, err := DecodeResults([]byte(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("DecodeResults(%s) = %v, want an error naming %q", tc.data, err, tc.want)
		}
	}
}

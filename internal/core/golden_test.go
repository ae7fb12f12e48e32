package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// The determinism golden test pins the exact simulation trajectory: the
// aggregates of Table II and of one windy point at radix 12, plus an
// order-sensitive digest of the full flight-recorder event stream, are
// compared byte-for-byte against a golden file captured from the seed
// implementation (binary-heap FEL, per-packet heap allocation). Any
// kernel or memory-lifecycle optimization must leave every value
// untouched: run with -update only when an intentional model change
// alters the trajectory, and say so in the commit.
var updateGolden = flag.Bool("update", false, "rewrite the determinism golden file")

const goldenPath = "testdata/determinism_golden.json"

// goldenRecord is the serialized trajectory fingerprint. Float fields
// are formatted to 12 significant digits at comparison time, so the file
// is stable across encoding details.
type goldenRecord struct {
	// TableII rows at radix 12 (reduced windows).
	TableII map[string]string `json:"table_ii"`
	// Windy point (B=25%, p=60) with CC on, flight recorder attached.
	WindySummary map[string]string `json:"windy_summary"`
	WindyEvents  uint64            `json:"windy_events"`
	// ObsDigest is the FNV-1a digest over every flight-recorder event's
	// fields in publication order.
	ObsDigest  string `json:"obs_digest"`
	ObsRecords uint64 `json:"obs_records"`
	// CC activity counters of the windy run.
	FECNMarked   uint64 `json:"fecn_marked"`
	BECNReceived uint64 `json:"becn_received"`
	CNPSent      uint64 `json:"cnp_sent"`
	// Variants pins the model features the windy point does not reach
	// (see goldenVariants).
	Variants map[string]goldenVariant `json:"variants"`
}

// goldenVariant is one variant run's trajectory fingerprint. SimEvents
// is the executed-event count — the one field an optimization that
// elides no-op events may change; everything else is the observable
// trajectory and must not move.
type goldenVariant struct {
	SimEvents       uint64 `json:"sim_events"`
	ObsDigest       string `json:"obs_digest"`
	ObsRecords      uint64 `json:"obs_records"`
	Delivered       uint64 `json:"delivered"`
	TotalGbps       string `json:"total_gbps"`
	FECNMarked      uint64 `json:"fecn_marked"`
	BECNReceived    uint64 `json:"becn_received"`
	CNPSent         uint64 `json:"cnp_sent"`
	ACKSent         uint64 `json:"ack_sent"`
	TimerDecrements uint64 `json:"timer_decrements"`
	MaxCCTI         uint16 `json:"max_ccti"`
}

// goldenBase is the reduced-window radix-12 scenario the golden
// trajectories run on.
func goldenBase() Scenario {
	s := Default(12)
	s.CC.CCTILimit = 13 // 2 x 7 contributors per hotspot - 1: the limit the trajectories were recorded with
	s.Warmup = 400 * sim.Microsecond
	s.Measure = 800 * sim.Microsecond
	return s
}

// goldenWindy is the one windy point (B=25%, p=60, CC on) whose complete
// event stream the golden file pins.
func goldenWindy() Scenario {
	s := goldenBase()
	s.FracBPct = 25
	s.PPercent = 60
	s.CNodesActive = true
	s.CCOn = true
	s.Name = "golden windy B=25% p=60 ccOn"
	return s
}

func g9(v float64) string { return fmt.Sprintf("%.12g", v) }

// buildGolden runs the golden workloads and assembles the record. The
// event stream is fingerprinted by obs.Digest — the same comparator the
// differential kernel check uses — so the golden file pins the exact
// hashing the live cross-implementation check relies on.
func buildGolden(t *testing.T) *goldenRecord {
	t.Helper()
	base := goldenBase()

	recs, err := RunPairs(tableIIRows(base), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	quiet, hot := recs[0], recs[1]
	rec := &goldenRecord{
		TableII: map[string]string{
			"no_hotspots_no_cc": g9(quiet.Off.Summary.AllAvgGbps),
			"no_hotspots_cc":    g9(quiet.On.Summary.AllAvgGbps),
			"hotspots_no_cc_h":  g9(hot.Off.Summary.HotspotAvgGbps),
			"hotspots_no_cc_n":  g9(hot.Off.Summary.NonHotspotAvgGbps),
			"hotspots_cc_h":     g9(hot.On.Summary.HotspotAvgGbps),
			"hotspots_cc_n":     g9(hot.On.Summary.NonHotspotAvgGbps),
			"total_no_cc":       g9(hot.Off.Summary.TotalGbps),
			"total_cc":          g9(hot.On.Summary.TotalGbps),
		},
	}

	// One windy point, flight recorder attached: the digest covers the
	// complete ordered event stream, so it pins not just the aggregates
	// but the entire observable trajectory.
	in, err := Build(goldenWindy())
	if err != nil {
		t.Fatal(err)
	}
	ob := in.Observe(ObserveOpts{})
	dig := obs.NewDigest()
	ob.Bus.Subscribe(dig)
	res := in.Execute()

	rec.WindySummary = map[string]string{
		"hot":    g9(res.Summary.HotspotAvgGbps),
		"nonhot": g9(res.Summary.NonHotspotAvgGbps),
		"all":    g9(res.Summary.AllAvgGbps),
		"total":  g9(res.Summary.TotalGbps),
	}
	rec.WindyEvents = res.Events
	rec.ObsDigest = dig.Sum()
	rec.ObsRecords = dig.Records()
	rec.FECNMarked = res.CCStats.FECNMarked
	rec.BECNReceived = res.CCStats.BECNReceived
	rec.CNPSent = res.CCStats.CNPSent
	rec.Variants = goldenVariants(t)
	return rec
}

// goldenVariantScenarios are the scenario shapes the checkpoint suite
// builds — each exercises fabric state the windy point never touches:
// moving hotspots, a second data VL, the fault layer (flaps, stalls,
// degraded serializers, packet and credit drops) and store-and-forward
// timing.
func goldenVariantScenarios(t *testing.T) map[string]Scenario {
	t.Helper()
	moving := faultBase(2)
	moving.HotspotLifetime = 150 * sim.Microsecond

	vl := faultBase(4)
	vl.SeparateHotspotVL = true

	faulted := faultBase(7)
	faulted.Faults = synthFor(t, &faulted, 77, 0.7)
	if p := faulted.Faults; len(p.Flaps) == 0 || len(p.Degrades) == 0 || p.Drop.Credit == 0 {
		t.Fatalf("faulted variant lost a fault class: %+v", p)
	}

	saf := faultBase(9)
	saf.Fabric.CutThrough = false

	out := map[string]Scenario{
		"moving_hotspots":     moving,
		"separate_hotspot_vl": vl,
		"faulted":             faulted,
		"store_and_forward":   saf,
	}
	for name, s := range out {
		s.Name = "golden " + name
		out[name] = s
	}
	return out
}

// goldenVariants runs the variant scenarios.
func goldenVariants(t *testing.T) map[string]goldenVariant {
	t.Helper()
	out := map[string]goldenVariant{}
	for name, s := range goldenVariantScenarios(t) {
		in, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		dig := in.AttachDigest()
		res := in.Execute()
		out[name] = goldenVariant{
			SimEvents:       res.Events,
			ObsDigest:       dig.Sum(),
			ObsRecords:      dig.Records(),
			Delivered:       in.DeliveredPackets(),
			TotalGbps:       g9(res.Summary.TotalGbps),
			FECNMarked:      res.CCStats.FECNMarked,
			BECNReceived:    res.CCStats.BECNReceived,
			CNPSent:         res.CCStats.CNPSent,
			ACKSent:         res.CCStats.ACKSent,
			TimerDecrements: res.CCStats.TimerDecrements,
			MaxCCTI:         res.CCStats.MaxCCTI,
		}
	}
	return out
}

// loadGolden reads the pinned trajectories.
func loadGolden(t *testing.T) *goldenRecord {
	t.Helper()
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	var rec goldenRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatal(err)
	}
	return &rec
}

// TestDeterminismGolden verifies the simulation trajectory is
// byte-identical to the recorded seed trajectory across the whole
// stack: kernel event order, packet lifecycle, CC behaviour and the
// flight-recorder stream.
func TestDeterminismGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden trajectory run is not short")
	}
	got := buildGolden(t)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", goldenPath)
		return
	}

	want := loadGolden(t)
	for k, w := range want.TableII {
		if g := got.TableII[k]; g != w {
			t.Errorf("Table II %s: got %s, golden %s", k, g, w)
		}
	}
	for k, w := range want.WindySummary {
		if g := got.WindySummary[k]; g != w {
			t.Errorf("windy %s: got %s, golden %s", k, g, w)
		}
	}
	if got.WindyEvents != want.WindyEvents {
		t.Errorf("windy events: got %d, golden %d", got.WindyEvents, want.WindyEvents)
	}
	if got.ObsDigest != want.ObsDigest || got.ObsRecords != want.ObsRecords {
		t.Errorf("obs stream: got %s over %d records, golden %s over %d",
			got.ObsDigest, got.ObsRecords, want.ObsDigest, want.ObsRecords)
	}
	if got.FECNMarked != want.FECNMarked || got.BECNReceived != want.BECNReceived || got.CNPSent != want.CNPSent {
		t.Errorf("cc stats: got fecn=%d becn=%d cnp=%d, golden fecn=%d becn=%d cnp=%d",
			got.FECNMarked, got.BECNReceived, got.CNPSent,
			want.FECNMarked, want.BECNReceived, want.CNPSent)
	}
	if len(got.Variants) != len(want.Variants) {
		t.Errorf("variants: ran %d, golden has %d", len(got.Variants), len(want.Variants))
	}
	for name, w := range want.Variants {
		if g := got.Variants[name]; g != w {
			t.Errorf("variant %s:\n   got %+v\ngolden %+v", name, g, w)
		}
	}
}

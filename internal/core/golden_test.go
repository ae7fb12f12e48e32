package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
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

	tab, err := RunTableIIOpts(base, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	rec := &goldenRecord{
		TableII: map[string]string{
			"no_hotspots_no_cc": g9(tab.NoHotspotsNoCC),
			"no_hotspots_cc":    g9(tab.NoHotspotsCC),
			"hotspots_no_cc_h":  g9(tab.HotspotsNoCC.Hot),
			"hotspots_no_cc_n":  g9(tab.HotspotsNoCC.NonHot),
			"hotspots_cc_h":     g9(tab.HotspotsCC.Hot),
			"hotspots_cc_n":     g9(tab.HotspotsCC.NonHot),
			"total_no_cc":       g9(tab.TotalNoCC),
			"total_cc":          g9(tab.TotalCC),
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
// moving hotspots, a second data VL, the rate-based backend, the fault
// layer (flaps, stalls, degraded serializers, packet and credit drops)
// and store-and-forward timing. (The sixth variant, dateline VL
// switching on a torus, runs below core: goldenTorus.)
func goldenVariantScenarios(t *testing.T) map[string]Scenario {
	t.Helper()
	moving := faultBase(2)
	moving.HotspotLifetime = 150 * sim.Microsecond

	vl := faultBase(4)
	vl.SeparateHotspotVL = true

	rcm := faultBase(5)
	rcm.Backend = "rcm"

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
		"rcm_backend":         rcm,
		"faulted":             faulted,
		"store_and_forward":   saf,
	}
	for name, s := range out {
		s.Name = "golden " + name
		out[name] = s
	}
	return out
}

// goldenVariants runs the variant scenarios and the torus.
func goldenVariants(t *testing.T) map[string]goldenVariant {
	t.Helper()
	out := map[string]goldenVariant{"torus_dateline": goldenTorus(t)}
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

// goldenFlood injects MTU packets to one destination as fast as the HCA
// pulls, through the network's pool.
type goldenFlood struct {
	pool      *ib.PacketPool
	src, dst  ib.LID
	remaining int
	nextID    uint64
}

func (f *goldenFlood) Pull(sim.Time) (*ib.Packet, sim.Time) {
	if f.remaining == 0 {
		return nil, sim.MaxTime
	}
	f.remaining--
	p := f.pool.Get()
	p.ID, p.Type, p.Src, p.Dst, p.PayloadBytes = f.nextID, ib.DataPacket, f.src, f.dst, ib.MTU
	p.MsgID, p.MsgPackets = f.nextID, 1
	f.nextID++
	return p, 0
}

// torusRun is the torus variant's network with its event-stream digest
// and per-host flood sources, before Start.
type torusRun struct {
	net    *fabric.Network
	dig    *obs.Digest
	floods []*goldenFlood
}

// The torus variant's slice boundary and end.
var (
	torusCut = sim.Time(0).Add(137 * sim.Microsecond)
	torusEnd = sim.Time(0).Add(50 * sim.Millisecond)
)

// newTorusRun builds a 4x4 torus under the dateline VL policy on which
// every host floods the host half-way around both rings, so grants
// switch lanes (Hooks.SelectVL) and need credits on a VL other than the
// one the packet queued on. It sits below core: no Scenario builds a
// torus.
func newTorusRun(t *testing.T) *torusRun {
	t.Helper()
	g, err := topo.Torus2D(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fabric.DefaultConfig()
	cfg.NumVLs = 2
	cfg.Check = true
	simr := sim.New()
	n, err := fabric.New(simr, g.Topology, g.DOR(), cfg, fabric.Hooks{SelectVL: g.TorusVLPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.New()
	tr := &torusRun{net: n, dig: obs.NewDigest()}
	bus.Subscribe(tr.dig)
	n.SetBus(bus)
	for s := 0; s < g.NumHosts; s++ {
		sx, sy := s%g.W, s/g.W
		dst := ib.LID((sx+g.W/2)%g.W + ((sy+g.H/2)%g.H)*g.W)
		f := &goldenFlood{pool: n.PacketPool(), src: ib.LID(s), dst: dst, remaining: 300}
		n.HCA(ib.LID(s)).SetSource(f)
		tr.floods = append(tr.floods, f)
	}
	return tr
}

// variant fingerprints the finished (drained) torus run.
func (tr *torusRun) variant(t *testing.T) goldenVariant {
	t.Helper()
	if err := tr.net.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	var rx uint64
	for s := 0; s < tr.net.NumHosts(); s++ {
		rx += tr.net.HCA(ib.LID(s)).Counters().RxPackets
	}
	return goldenVariant{SimEvents: tr.net.Sim().Processed(), ObsDigest: tr.dig.Sum(), ObsRecords: tr.dig.Records(), Delivered: rx}
}

// goldenTorus saturates the torus in two RunUntil slices, so the
// kernel's between-runs state is part of the pinned trajectory.
func goldenTorus(t *testing.T) goldenVariant {
	t.Helper()
	tr := newTorusRun(t)
	tr.net.Start()
	tr.net.Sim().RunUntil(torusCut)
	tr.net.Sim().RunUntil(torusEnd)
	return tr.variant(t)
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

package fault

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestZeroPlan(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Zero() {
		t.Fatal("nil plan not zero")
	}
	p := &Plan{Seed: 7, Horizon: sim.Time(sim.Second), SampleEvery: sim.Microsecond}
	if !p.Zero() {
		t.Fatal("seed/horizon/sampling alone should not make a plan non-zero")
	}
	p.Drop.CNP = 0.5
	if p.Zero() {
		t.Fatal("drop probability ignored by Zero")
	}
	p = &Plan{Flaps: []Flap{{At: 1, Dur: 1}}}
	if p.Zero() {
		t.Fatal("flap ignored by Zero")
	}
}

func TestValidateRejects(t *testing.T) {
	links := []LinkRef{{Node: 0}, {AtSwitch: true, Node: 0, Port: 1}}
	cases := []struct {
		name string
		plan Plan
	}{
		{"prob out of range", Plan{Drop: DropProbs{CNP: 1.5}}},
		{"negative prob", Plan{Drop: DropProbs{Data: -0.1}}},
		{"degrade factor <= 1", Plan{Degrades: []Degrade{{Link: links[0], At: 1, Dur: 1, Factor: 1}}}},
		{"empty window", Plan{Flaps: []Flap{{Link: links[0], At: 1, Dur: 0}}}},
		{"past horizon", Plan{Horizon: 10, Flaps: []Flap{{Link: links[0], At: 5, Dur: 20}}}},
		{"unknown link", Plan{Flaps: []Flap{{Link: LinkRef{Node: 99}, At: 1, Dur: 1}}}},
		{"host with port", Plan{Flaps: []Flap{{Link: LinkRef{Node: 0, Port: 3}, At: 1, Dur: 1}}}},
		{"stall on host", Plan{Stalls: []Stall{{Link: links[0], At: 1, Dur: 1}}}},
		{"sampling without horizon", Plan{SampleEvery: 5}},
	}
	for _, c := range cases {
		if err := c.plan.Validate(links); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := Decode(strings.NewReader(`{"seed": 1, "flapz": []}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := &Plan{
		Seed:    42,
		Horizon: sim.Time(sim.Millisecond),
		Flaps:   []Flap{{Link: LinkRef{AtSwitch: true, Node: 0, Port: 2}, At: 1000, Dur: 5000}},
		Degrades: []Degrade{
			{Link: LinkRef{Node: 1}, At: 2000, Dur: 3000, Factor: 4},
		},
		Drop:        DropProbs{CNP: 0.25, Credit: 0.01},
		SampleEvery: sim.Microsecond,
	}
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip changed the plan:\n%+v\n%+v", p, got)
	}
}

func TestFabricLinks(t *testing.T) {
	tp, _ := topo.SingleSwitch(2)
	links := FabricLinks(tp)
	want := []LinkRef{
		{Node: 0}, {Node: 1},
		{AtSwitch: true, Node: 0, Port: 0}, {AtSwitch: true, Node: 0, Port: 1},
	}
	if !reflect.DeepEqual(links, want) {
		t.Fatalf("links = %+v, want %+v", links, want)
	}
}

func TestSynthDeterministicAndScaled(t *testing.T) {
	tp, _ := topo.FatTree(4)
	links := FabricLinks(tp)
	cfg := SynthConfig{Seed: 9, Intensity: 0.8, Links: links, Horizon: sim.Time(sim.Millisecond), SampleEvery: 20 * sim.Microsecond}
	a, err := Synth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("synth not deterministic")
	}
	if a.Zero() {
		t.Fatal("intensity 0.8 synthesized a zero plan")
	}
	if err := a.Validate(links); err != nil {
		t.Fatal(err)
	}
	if a.LastFaultEnd() >= cfg.Horizon {
		t.Fatalf("faults run to the horizon: %v", a.LastFaultEnd())
	}

	z, err := Synth(SynthConfig{Seed: 9, Intensity: 0, Links: links, Horizon: sim.Time(sim.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if !z.Zero() {
		t.Fatalf("intensity 0 plan not zero: %+v", z)
	}
}

// flood is a minimal unbounded-ish source for injector tests.
type flood struct {
	src, dst  ib.LID
	remaining int
	id        uint64
}

func (f *flood) Pull(now sim.Time) (*ib.Packet, sim.Time) {
	if f.remaining == 0 {
		return nil, sim.MaxTime
	}
	f.remaining--
	f.id++
	return &ib.Packet{ID: f.id, Type: ib.DataPacket, Src: f.src, Dst: f.dst, PayloadBytes: ib.MTU}, 0
}

func buildNet(t *testing.T) *fabric.Network {
	t.Helper()
	tp, _ := topo.SingleSwitch(2)
	r, err := topo.ComputeLFT(tp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fabric.DefaultConfig()
	cfg.Check = true
	n, err := fabric.New(sim.New(), tp, r, cfg, fabric.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestInjectorEndToEnd(t *testing.T) {
	n := buildNet(t)
	aud := n.Audit()
	plan := &Plan{
		Seed:    11,
		Horizon: sim.Time(10 * sim.Millisecond),
		Flaps:   []Flap{{Link: LinkRef{AtSwitch: true, Node: 0, Port: 1}, At: sim.Time(20 * sim.Microsecond), Dur: 50 * sim.Microsecond}},
		Drop:    DropProbs{Data: 0.2},
	}
	inj, err := NewInjector(n, plan)
	if err != nil {
		t.Fatal(err)
	}
	n.HCA(0).SetSource(&flood{src: 0, dst: 1, remaining: 200})
	n.Start()
	n.Sim().Run()

	st := inj.Stats()
	if st.LinkDowns != 1 || st.LinkUps != 1 {
		t.Fatalf("downs=%d ups=%d, want 1/1", st.LinkDowns, st.LinkUps)
	}
	if st.DroppedData == 0 {
		t.Fatal("20% data loss dropped nothing over 200 packets")
	}
	if got := uint64(aud.DroppedPackets); got != st.DroppedPackets() {
		t.Fatalf("audit dropped %d, injector says %d", got, st.DroppedPackets())
	}
	rx := n.HCA(1).Counters().RxPackets
	if rx+st.DroppedPackets() != 200 {
		t.Fatalf("rx %d + dropped %d != 200", rx, st.DroppedPackets())
	}
	if err := n.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	run := func() *Stats {
		n := buildNet(t)
		plan := &Plan{
			Seed:    3,
			Horizon: sim.Time(10 * sim.Millisecond),
			Flaps:   []Flap{{Link: LinkRef{Node: 0}, At: sim.Time(30 * sim.Microsecond), Dur: 40 * sim.Microsecond}},
			Drop:    DropProbs{Data: 0.1, Credit: 0.05},
		}
		inj, err := NewInjector(n, plan)
		if err != nil {
			t.Fatal(err)
		}
		n.HCA(0).SetSource(&flood{src: 0, dst: 1, remaining: 300})
		n.Start()
		n.Sim().Run()
		return inj.Stats()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same plan, different stats:\n%+v\n%+v", a, b)
	}
}

func TestInjectorRejectsZeroPlan(t *testing.T) {
	n := buildNet(t)
	if _, err := NewInjector(n, &Plan{Seed: 1}); err == nil {
		t.Fatal("zero plan accepted")
	}
}

func TestOverlappingFaultsNest(t *testing.T) {
	n := buildNet(t)
	l := LinkRef{AtSwitch: true, Node: 0, Port: 1}
	plan := &Plan{
		Seed:    5,
		Horizon: sim.Time(10 * sim.Millisecond),
		Flaps: []Flap{
			{Link: l, At: sim.Time(10 * sim.Microsecond), Dur: 100 * sim.Microsecond},
			{Link: l, At: sim.Time(40 * sim.Microsecond), Dur: 30 * sim.Microsecond},
		},
		Stalls: []Stall{{Link: l, At: sim.Time(60 * sim.Microsecond), Dur: 100 * sim.Microsecond}},
	}
	inj, err := NewInjector(n, plan)
	if err != nil {
		t.Fatal(err)
	}
	n.HCA(0).SetSource(&flood{src: 0, dst: 1, remaining: 100})
	n.Start()
	n.Sim().Run()
	st := inj.Stats()
	// Three overlapping windows on one link must collapse to a single
	// down/up edge pair.
	if st.LinkDowns != 1 || st.LinkUps != 1 {
		t.Fatalf("downs=%d ups=%d, want 1/1 for nested faults", st.LinkDowns, st.LinkUps)
	}
	if got := n.HCA(1).Counters().RxPackets; got != 100 {
		t.Fatalf("delivered %d, want 100", got)
	}
	if err := n.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

func TestRateSamplerAndRecovery(t *testing.T) {
	n := buildNet(t)
	plan := &Plan{
		Seed:        2,
		Horizon:     sim.Time(400 * sim.Microsecond),
		Flaps:       []Flap{{Link: LinkRef{Node: 0}, At: sim.Time(100 * sim.Microsecond), Dur: 60 * sim.Microsecond}},
		SampleEvery: 20 * sim.Microsecond,
	}
	inj, err := NewInjector(n, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Effectively unbounded within the horizon; the source outlives it.
	n.HCA(0).SetSource(&flood{src: 0, dst: 1, remaining: 1 << 20})
	n.Start()
	n.Sim().RunUntil(plan.Horizon)

	st := inj.Stats()
	if len(st.Samples) < 10 {
		t.Fatalf("only %d samples", len(st.Samples))
	}
	if st.Recovery <= 0 {
		t.Fatalf("recovery = %v, want positive (flap ends mid-run, traffic resumes)", st.Recovery)
	}
	// The outage must be visible in the curve: some mid-run window well
	// below the pre-fault baseline.
	base := st.Samples[0].Gbps
	var dipped bool
	for _, s := range st.Samples {
		if s.T > plan.Flaps[0].At && s.Gbps < base/2 {
			dipped = true
		}
	}
	if !dipped {
		t.Fatal("link outage invisible in the rate curve")
	}
}

func TestRecoveryMetricEdgeCases(t *testing.T) {
	s := &Stats{}
	if got := s.recovery(); got != 0 {
		t.Fatalf("no samples: recovery %v, want 0", got)
	}
	s = &Stats{
		FirstFaultStart: 100,
		LastFaultEnd:    200,
		Samples: []RateSample{
			{T: 50, Gbps: 10}, {T: 150, Gbps: 1}, {T: 250, Gbps: 2}, {T: 350, Gbps: 3},
		},
	}
	if got := s.recovery(); got != -1 {
		t.Fatalf("never recovered: recovery %v, want -1", got)
	}
	s.Samples = append(s.Samples, RateSample{T: 450, Gbps: 9.5})
	if got := s.recovery(); got != 250 {
		t.Fatalf("recovery %v, want 250", got)
	}
}

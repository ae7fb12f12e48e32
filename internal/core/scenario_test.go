package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cc"
	"repro/internal/sim"
)

func TestDefaultScenario(t *testing.T) {
	s := Default(36)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumNodes() != 648 {
		t.Fatalf("NumNodes = %d", s.NumNodes())
	}
	// One scenario definition at every radix: Table I, unscaled.
	for _, r := range []int{8, 12, 18, 36} {
		if got := Default(r).CC; !reflect.DeepEqual(got, cc.PaperParams()) {
			t.Errorf("Default(%d).CC = %+v, want Table I", r, got)
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	bad := []func(*Scenario){
		func(s *Scenario) { s.Radix = 3 },
		func(s *Scenario) { s.Radix = 0 },
		func(s *Scenario) { s.FracBPct = 101 },
		func(s *Scenario) { s.FracBPct = -1 },
		func(s *Scenario) { s.PPercent = 101 },
		func(s *Scenario) { s.FracCOfRestPct = -2 },
		func(s *Scenario) { s.NumHotspots = 0 },
		func(s *Scenario) { s.NumHotspots = s.NumNodes() },
		func(s *Scenario) { s.Measure = 0 },
		func(s *Scenario) { s.Warmup = -1 },
		func(s *Scenario) { s.HotspotLifetime = -1 },
		func(s *Scenario) { s.CC.CCT = nil },
		func(s *Scenario) { s.Fabric.NumVLs = 0 },
	}
	for i, mut := range bad {
		s := Default(12)
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid scenario accepted", i)
		}
	}
	// CC config errors are ignored when CC is off.
	s := Default(12)
	s.CCOn = false
	s.CC.CCT = nil
	if err := s.Validate(); err != nil {
		t.Errorf("CC-off scenario rejected: %v", err)
	}
}

func TestTMaxMatchesPaperValues(t *testing.T) {
	// Figure 5(a): 25% B nodes at p=0 has tmax 5.4 Gbit/s; the paper
	// quotes 5.4 and our closed form gives (162+98)*13.5/647.
	s := Default(36)
	s.FracBPct = 25
	s.PPercent = 0
	got := s.TMaxNonHotspotGbps()
	if math.Abs(got-5.425) > 0.01 {
		t.Fatalf("tmax(25%%B, p=0) = %.4f, want ~5.425", got)
	}
	// At p=100 only the V nodes feed the non-hotspots.
	s.PPercent = 100
	got = s.TMaxNonHotspotGbps()
	want := 98.0 * 13.5 / 647
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("tmax(25%%B, p=100) = %.4f, want %.4f", got, want)
	}
	// 100% B at p=0 offers 648*13.5/647 per non-hotspot, just under
	// the sink cap.
	s.FracBPct = 100
	s.PPercent = 0
	if got = s.TMaxNonHotspotGbps(); math.Abs(got-648*13.5/647) > 0.01 {
		t.Fatalf("tmax = %.4f, want %.4f", got, 648*13.5/647)
	}
	// In a tiny network the offered load exceeds the end-node receive
	// rate and tmax saturates at the sink cap.
	tiny := Default(4)
	tiny.FracBPct = 100
	tiny.PPercent = 0
	if got = tiny.TMaxNonHotspotGbps(); got != 13.6 {
		t.Fatalf("tmax cap = %.4f, want 13.6", got)
	}
	// 100% B at p=100 leaves nothing for the non-hotspots.
	s.PPercent = 100
	if got = s.TMaxNonHotspotGbps(); got != 0 {
		t.Fatalf("tmax = %.4f, want 0", got)
	}
}

func TestTMaxDecreasesInP(t *testing.T) {
	s := Default(18)
	s.FracBPct = 50
	prev := math.Inf(1)
	for p := 0; p <= 100; p += 10 {
		s.PPercent = p
		cur := s.TMaxNonHotspotGbps()
		if cur > prev {
			t.Fatalf("tmax increased at p=%d", p)
		}
		prev = cur
	}
}

func TestPaperPValues(t *testing.T) {
	ps := PaperPValues()
	if len(ps) != 11 || ps[0] != 0 || ps[10] != 100 {
		t.Fatalf("p values = %v", ps)
	}
}

// Every moving series of the paper table (two in figure 9, three in
// figure 10) sweeps the paper's eight hotspot lifetimes, 10 ms down to
// 1 ms.
func TestPaperLifetimes(t *testing.T) {
	series := map[string][]sim.Duration{}
	for _, r := range Paper(Default(8), nil) {
		if r.Off.HotspotLifetime > 0 {
			series[r.Series] = append(series[r.Series], r.Off.HotspotLifetime)
		}
	}
	if len(series) != 5 {
		t.Fatalf("%d moving series, want 5", len(series))
	}
	for name, lts := range series {
		if len(lts) != 8 {
			t.Fatalf("%s: lifetimes = %v", name, lts)
		}
		if lts[0] != 10*sim.Millisecond || lts[len(lts)-1] != sim.Millisecond {
			t.Fatalf("%s: range = %v .. %v", name, lts[0], lts[len(lts)-1])
		}
		for i := 1; i < len(lts); i++ {
			if lts[i] >= lts[i-1] {
				t.Fatalf("%s: lifetimes must decrease", name)
			}
		}
	}
}

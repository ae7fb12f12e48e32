package core

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
)

// faultBase is the reduced-window radix-8 scenario the fault tests run:
// the default population floods 8 hotspots, so congestion control is
// active and its control traffic is there to lose.
func faultBase(seed uint64) Scenario {
	s := Default(8)
	s.Seed = seed
	s.Warmup = 200 * sim.Microsecond
	s.Measure = 400 * sim.Microsecond
	return s
}

// synthFor synthesizes a fault plan sized to s at the given intensity.
func synthFor(t *testing.T, s *Scenario, seed uint64, intensity float64) *fault.Plan {
	t.Helper()
	tp, err := topo.FatTree(s.Radix)
	if err != nil {
		t.Fatal(err)
	}
	horizon := sim.Time(0).Add(s.Warmup + s.Measure)
	plan, err := fault.Synth(fault.SynthConfig{
		Seed:        seed,
		Intensity:   intensity,
		Links:       fault.FabricLinks(tp),
		Horizon:     horizon,
		SampleEvery: (s.Warmup + s.Measure) / 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestFaultedRunDeterministic: the same (scenario seed, fault plan) pair
// replays the identical trajectory — full event-stream digest, not just
// aggregates — and the injector's stats replay with it.
func TestFaultedRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted determinism corpus is not short")
	}
	s := faultBase(1)
	s.Faults = synthFor(t, &s, 99, 0.6)
	s.Name = "faulted determinism"

	sig1, _, err := signedRun(s, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	sig2, _, err := signedRun(s, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sig1 != sig2 {
		t.Fatalf("faulted trajectory not reproducible:\n  %s\n  %s", sig1, sig2)
	}

	r1, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Faults == nil || r1.Faults.DroppedPackets() == 0 {
		t.Fatalf("intensity-0.6 plan dropped nothing: %+v", r1.Faults)
	}
	if !reflect.DeepEqual(r1.Faults, r2.Faults) {
		t.Fatalf("fault stats diverge:\n  %+v\n  %+v", r1.Faults, r2.Faults)
	}
}

// TestZeroIntensityPlanMatchesAbsent: a zero-intensity plan produces a
// trajectory byte-identical to no plan at all. The no-plan trajectory is
// itself pinned by the determinism golden file, so this transitively
// guards the faulted builder against perturbing golden runs.
func TestZeroIntensityPlanMatchesAbsent(t *testing.T) {
	if testing.Short() {
		t.Skip("trajectory comparison is not short")
	}
	s := faultBase(1)
	s.Name = "zero-plan transparency"
	bare, _, err := signedRun(s, false, nil)
	if err != nil {
		t.Fatal(err)
	}

	z := s
	z.Faults = synthFor(t, &z, 99, 0)
	if !z.Faults.Zero() {
		t.Fatalf("intensity 0 synthesized a non-zero plan: %+v", z.Faults)
	}
	zero, _, err := signedRun(z, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bare != zero {
		t.Fatalf("zero-intensity plan perturbed the trajectory:\n  no plan: %s\n  zero:    %s", bare, zero)
	}
	r, err := Run(z)
	if err != nil {
		t.Fatal(err)
	}
	if r.Faults != nil {
		t.Fatalf("zero plan produced fault stats: %+v", r.Faults)
	}
}

// TestFaultedCorpusChecked runs the Table II corpus under synthesized
// faults — flaps, stalls, degrades and every drop class — with the
// runtime invariant checker attached: custody conservation must balance
// through the Dropped ledger with zero violations.
func TestFaultedCorpusChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("checked fault corpus is not short")
	}
	base := faultBase(2)
	plan := synthFor(t, &base, 77, 0.7)
	dropped := false
	for _, s := range TableIIScenarios(base) {
		s.Faults = plan
		res, rep, err := RunChecked(s, CheckOpts{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if rep.Total != 0 {
			t.Errorf("%s: %d violation(s) under faults, first: %s", s.Name, rep.Total, rep.Violations[0])
		}
		if res.Faults == nil {
			t.Fatalf("%s: no fault stats", s.Name)
		}
		if res.Faults.DroppedPackets() > 0 {
			dropped = true
		}
		if res.Faults.LinkDowns == 0 || res.Faults.LinkDowns != res.Faults.LinkUps {
			t.Errorf("%s: link transitions unbalanced: %d down / %d up",
				s.Name, res.Faults.LinkDowns, res.Faults.LinkUps)
		}
	}
	if !dropped {
		t.Error("corpus dropped no packets anywhere; plan too weak to test the ledger")
	}
}

// TestCCSurvivesLostCNPs: losing the backward notification must degrade
// congestion control, not wedge it. With every CNP dropped the sources
// never see a BECN and never throttle; with half dropped the CCTI still
// rises on the survivors and the recovery timer decays it back.
func TestCCSurvivesLostCNPs(t *testing.T) {
	if testing.Short() {
		t.Skip("CC survival runs are not short")
	}
	base := faultBase(3)
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.CCStats.BECNReceived == 0 || ref.CCStats.MaxCCTI == 0 {
		t.Fatalf("baseline has no CC activity to disturb: %+v", ref.CCStats)
	}

	all := base
	all.Faults = &fault.Plan{Seed: 7, Drop: fault.DropProbs{CNP: 1}}
	all.Name = "all CNPs lost"
	res, err := Run(all)
	if err != nil {
		t.Fatal(err)
	}
	if res.CCStats.CNPSent == 0 || res.Faults.DroppedCNP == 0 {
		t.Fatalf("no CNPs sent/dropped: cc=%+v faults=%+v", res.CCStats, res.Faults)
	}
	if res.CCStats.BECNReceived != 0 || res.CCStats.MaxCCTI != 0 {
		t.Fatalf("BECNs delivered despite total CNP loss: becn=%d maxccti=%d",
			res.CCStats.BECNReceived, res.CCStats.MaxCCTI)
	}

	half := base
	half.Faults = &fault.Plan{Seed: 7, Drop: fault.DropProbs{CNP: 0.5}}
	half.Name = "half the CNPs lost"
	res, err = Run(half)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.DroppedCNP == 0 {
		t.Fatalf("partial loss dropped nothing: %+v", res.Faults)
	}
	if res.CCStats.BECNReceived == 0 || res.CCStats.MaxCCTI == 0 {
		t.Fatalf("surviving CNPs did not throttle: %+v", res.CCStats)
	}
	if res.CCStats.TimerDecrements == 0 {
		t.Fatalf("no CCTI decay under partial CNP loss: %+v", res.CCStats)
	}
}

package check

import (
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// newBare returns a checker over a bare simulator: enough target for the
// FEL-order and CCTI rules, with the model sweeps disabled.
func newBare(t *testing.T, cfg Config) *Checker {
	t.Helper()
	return New(Target{Sim: sim.New()}, cfg)
}

// newFabric builds a checker over a real (idle) radix-2 fabric.
func newFabric(t *testing.T, cfg Config) (*Checker, *fabric.Network) {
	t.Helper()
	tp, err := topo.FatTree(2)
	if err != nil {
		t.Fatal(err)
	}
	lft, err := topo.ComputeLFT(tp)
	if err != nil {
		t.Fatal(err)
	}
	simr := sim.New()
	net, err := fabric.New(simr, tp, lft, fabric.DefaultConfig(), fabric.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Target{Sim: simr, Net: net, Pool: net.PacketPool()}, cfg)
	return c, net
}

// hold gets n packets from the pool and parks them in real fabric
// custody that never progresses: host 0's control queue and injection
// DMA, whose completion event nothing here runs. Custody balances (so
// no conservation noise) and no packet is injected or delivered.
func hold(net *fabric.Network, n int) {
	for i := 0; i < n; i++ {
		net.HCA(0).SendControl(net.PacketPool().Get())
	}
}

func wantRule(t *testing.T, c *Checker, rule string) {
	t.Helper()
	rep := c.Report()
	if rep.Total == 0 {
		t.Fatalf("expected a %q violation, report clean", rule)
	}
	if got := rep.Violations[0].Rule; got != rule {
		t.Fatalf("expected first violation rule %q, got %q (%s)", rule, got, rep.Violations[0])
	}
}

// TestExecEventOrderProbe feeds the FEL-order probe legal and illegal
// (time, seq) sequences.
func TestExecEventOrderProbe(t *testing.T) {
	c := newBare(t, Config{})
	// Legal: time strictly up, seq free to reset; equal time, seq up.
	c.execEvent(10, 5)
	c.execEvent(10, 6)
	c.execEvent(20, 1)
	if rep := c.Report(); rep.Total != 0 {
		t.Fatalf("legal sequence flagged: %v", rep.Violations)
	}

	// Time regression.
	c2 := newBare(t, Config{})
	c2.execEvent(20, 1)
	c2.execEvent(10, 2)
	wantRule(t, c2, "fel-order")

	// Seq regression within an instant.
	c3 := newBare(t, Config{})
	c3.execEvent(10, 7)
	c3.execEvent(10, 7)
	wantRule(t, c3, "fel-order")
}

// TestCCTIStepValidation covers the legal transition shapes and a range
// of illegal ones against the paper parameter set.
func TestCCTIStepValidation(t *testing.T) {
	step := func(old, new uint16) *Checker {
		c := newBare(t, Config{})
		c.params = cc.PaperParams()
		c.ccParamsOK = true
		c.consumeCCTI(obs.Event{Kind: obs.KindCCTIChanged, Time: 5, OldCCTI: old, NewCCTI: new})
		return c
	}
	p := cc.PaperParams() // CCTIIncrease=1, CCTILimit=127, CCTIMin=0

	for _, tc := range []struct{ old, new uint16 }{
		{0, 1},                                                    // plain increase
		{p.CCTILimit - 1, p.CCTILimit} /* clamped bump */, {5, 4}, // decay
	} {
		if rep := step(tc.old, tc.new).Report(); rep.Total != 0 {
			t.Errorf("legal step %d->%d flagged: %v", tc.old, tc.new, rep.Violations)
		}
	}
	for _, tc := range []struct{ old, new uint16 }{
		{3, 7},                     // jump
		{p.CCTILimit, p.CCTILimit}, // published no-op
		{0, p.CCTILimit + 1},       // above limit
		{p.CCTILimit + 2, p.CCTILimit + 1} /* outside bounds both sides */} {
		c := step(tc.old, tc.new)
		wantRule(t, c, "ccti-step")
	}
	if rep := step(3, 7).Report(); rep.CCTISteps != 1 {
		t.Errorf("CCTISteps = %d, want 1", rep.CCTISteps)
	}
}

// TestConservationSweep leaks a pool packet outside any custody site and
// expects the conservation rule to fire.
func TestConservationSweep(t *testing.T) {
	c, net := newFabric(t, Config{WatchdogAfter: -1})
	c.sweep(0)
	if rep := c.Report(); rep.Total != 0 {
		t.Fatalf("idle fabric flagged: %v", rep.Violations)
	}

	leaked := net.PacketPool().Get() // live=1, held by nobody
	_ = leaked
	c.sweep(1)
	wantRule(t, c, "conservation")
}

// TestWatchdogTrip parks packets in fabric custody with no delivery
// progress and expects the watchdog after its horizon — exactly once —
// with a diagnostic dump.
func TestWatchdogTrip(t *testing.T) {
	var diag strings.Builder
	c, net := newFabric(t, Config{WatchdogAfter: sim.Millisecond, Diagnostics: &diag})
	hold(net, 3)

	c.sweep(0)
	c.sweep(sim.Time(0).Add(500 * sim.Microsecond))
	if rep := c.Report(); rep.Total != 0 {
		t.Fatalf("watchdog tripped before horizon: %v", rep.Violations)
	}
	c.sweep(sim.Time(0).Add(1500 * sim.Microsecond))
	wantRule(t, c, "watchdog")
	c.sweep(sim.Time(0).Add(2 * sim.Millisecond))
	if rep := c.Report(); rep.Total != 1 {
		t.Fatalf("watchdog re-tripped without new progress: %d violations", rep.Total)
	}
	for _, want := range []string{"fabric custody staged=3", "pool gets=3"} {
		if !strings.Contains(diag.String(), want) {
			t.Errorf("diagnostic dump missing %q:\n%s", want, diag.String())
		}
	}
}

// TestRunSweepsWindows drives a trivial event load the way a run loop
// does — stop at NextSweep, Sweep — and verifies the windowed execution
// sweeps and probes.
func TestRunSweepsWindows(t *testing.T) {
	simr := sim.New()
	c := New(Target{Sim: simr}, Config{Window: 10 * sim.Microsecond})
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 20 {
			simr.Schedule(7*sim.Microsecond, tick)
		}
	}
	simr.Schedule(0, tick)
	for end := sim.Time(0).Add(200 * sim.Microsecond); simr.Now().Before(end); c.Sweep() {
		simr.RunUntil(min(end, c.NextSweep()))
	}
	rep := c.Report()
	if n != 20 {
		t.Fatalf("executed %d ticks, want 20", n)
	}
	if rep.EventsChecked != 20 {
		t.Errorf("EventsChecked = %d, want 20", rep.EventsChecked)
	}
	if rep.Sweeps < 14 {
		t.Errorf("Sweeps = %d, want >= 14 windows", rep.Sweeps)
	}
	if rep.Total != 0 {
		t.Errorf("clean run flagged: %v", rep.Violations)
	}
}

// TestPoolAccountingWithDrops: releases by the fault layer are not
// miscounted as leaks — puts == delivered + dropped balances — while a
// release that matches neither side still fires the rule.
func TestPoolAccountingWithDrops(t *testing.T) {
	c, net := newFabric(t, Config{WatchdogAfter: -1})
	aud := net.Audit()

	// Two packets acquired and "wire-dropped" by the fault layer: the
	// pool sees the puts, the sink saw nothing.
	for i := 0; i < 2; i++ {
		p := net.PacketPool().Get()
		aud.DroppedPackets++
		aud.DroppedData++
		net.PacketPool().Put(p)
	}
	c.sweep(0)
	if rep := c.Report(); rep.Total != 0 {
		t.Fatalf("balanced drop ledger flagged: %v", rep.Violations)
	}

	// A put with no matching delivery or drop is a double release.
	p := net.PacketPool().Get()
	net.PacketPool().Put(p)
	c.sweep(1)
	wantRule(t, c, "pool-accounting")
}

// TestDumpShowsFaultEvents: when a fault plan was active, the watchdog
// dump includes the recent fault events and the drop ledger.
func TestDumpShowsFaultEvents(t *testing.T) {
	var diag strings.Builder
	c, net := newFabric(t, Config{WatchdogAfter: sim.Millisecond, Diagnostics: &diag})
	aud := net.Audit()
	bus := obs.New()
	c.Attach(bus)
	net.SetBus(bus)

	// A link goes down and one packet is lost, then progress stops.
	bus.LinkDown(100, true, 1, 2)
	bus.PacketDropped(200, true, 1, 2, nil, 0, 2094)
	aud.DroppedCredits++
	hold(net, 2)
	c.sweep(0)
	c.sweep(sim.Time(0).Add(2 * sim.Millisecond))
	wantRule(t, c, "watchdog")
	for _, want := range []string{"link_down at sw1.p2", "dropped credit update", "credits=1", "fault events"} {
		if !strings.Contains(diag.String(), want) {
			t.Errorf("dump missing %q:\n%s", want, diag.String())
		}
	}
}

// TestFaultRingBounded: the ring keeps only the most recent events.
func TestFaultRingBounded(t *testing.T) {
	c := newBare(t, Config{})
	bus := obs.New()
	c.Attach(bus)
	for i := 0; i < faultRingSize+5; i++ {
		bus.LinkDown(sim.Time(i), false, i, 0)
	}
	if len(c.faultRing) != faultRingSize {
		t.Fatalf("ring grew to %d", len(c.faultRing))
	}
	if c.faultSeen != faultRingSize+5 {
		t.Fatalf("seen = %d", c.faultSeen)
	}
	oldest := c.faultRing[c.faultNext]
	if oldest.Node != 5 {
		t.Fatalf("oldest retained event is node %d, want 5", oldest.Node)
	}
}

// TestReportSummary: the shared one-line form for clean and dirty runs.
func TestReportSummary(t *testing.T) {
	rep := &Report{Sweeps: 3, EventsChecked: 40, CCTISteps: 7}
	if got := rep.Summary(); got != "clean (3 sweeps, 40 events probed, 7 CCTI steps validated)" {
		t.Fatalf("Summary() = %q", got)
	}
	rep.Total = 2
	rep.Violations = []Violation{{Time: 9, Rule: "watchdog", Detail: "stuck"}}
	if got := rep.Summary(); !strings.Contains(got, "2 violation(s)") || !strings.Contains(got, "watchdog") {
		t.Fatalf("Summary() = %q", got)
	}
}

// TestReportErr checks the clean/dirty error contract and the violation
// cap.
func TestReportErr(t *testing.T) {
	c := newBare(t, Config{MaxViolations: 2})
	if err := c.Report().Err(); err != nil {
		t.Fatalf("clean report errored: %v", err)
	}
	for i := 0; i < 5; i++ {
		c.violate(sim.Time(i), "fel-order", "synthetic %d", i)
	}
	rep := c.Report()
	if rep.Total != 5 || len(rep.Violations) != 2 {
		t.Fatalf("cap broken: total=%d recorded=%d", rep.Total, len(rep.Violations))
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "5 invariant violation(s)") {
		t.Fatalf("Err() = %v", err)
	}
}

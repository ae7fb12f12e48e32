package sim_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/sim"
)

// felOrder sweeps a checker attached to s before the keys were fed and
// returns its fel-order violations and total.
func felOrder(t *testing.T, keys ...[2]uint64) ([]check.Violation, int) {
	t.Helper()
	s := sim.New()
	c := check.New(check.Target{Sim: s}, check.Config{WatchdogAfter: -1})
	for _, k := range keys {
		s.Probe(sim.Time(k[0]), k[1])
	}
	c.Sweep()
	rep := c.Report()
	for _, v := range rep.Violations {
		if v.Rule != "fel-order" {
			t.Fatalf("unexpected %s violation: %s", v.Rule, v)
		}
	}
	return rep.Violations, rep.Total
}

// TestKernelOrderProbe feeds the kernel's FEL-order probe legal and
// illegal (time, seq) sequences and reads the checker's verdict.
func TestKernelOrderProbe(t *testing.T) {
	// Legal: time strictly up, seq free to reset; equal time, seq up.
	if v, n := felOrder(t, [2]uint64{10, 5}, [2]uint64{10, 6}, [2]uint64{20, 1}); n != 0 {
		t.Fatalf("legal sequence flagged: %v", v)
	}
	for _, tc := range []struct {
		keys   [][2]uint64
		detail string
	}{
		// Time regression.
		{[][2]uint64{{20, 1}, {10, 2}}, "event time went backwards: (10ps, seq 2) after (20ps, seq 1)"},
		// Seq regression within an instant.
		{[][2]uint64{{10, 7}, {10, 7}}, "event seq not increasing at 10ps: seq 7 after seq 7"},
	} {
		v, n := felOrder(t, tc.keys...)
		if n != 1 || len(v) != 1 || v[0].Detail != tc.detail || v[0].Time != sim.Time(tc.keys[1][0]) {
			t.Errorf("%v: got %d violation(s) %v, want one at %dps: %q", tc.keys, n, v, tc.keys[1][0], tc.detail)
		}
	}
	// Several inversions in one window: the first is recorded, all are
	// counted.
	if v, n := felOrder(t, [2]uint64{30, 1}, [2]uint64{20, 1}, [2]uint64{10, 1}); n != 2 || len(v) != 1 ||
		v[0].Detail != "event time went backwards: (20ps, seq 1) after (30ps, seq 1)" {
		t.Errorf("two inversions: got %d violation(s) %v", n, v)
	}
}

// TestKernelOrderProbeMutant: a kernel that swaps two events of a loaded
// slot turns the checker's fel-order rule red, with the probe's message,
// while the same schedule run in order is clean.
func TestKernelOrderProbeMutant(t *testing.T) {
	run := func(mutate bool) *check.Report {
		s := sim.New()
		c := check.New(check.Target{Sim: s}, check.Config{WatchdogAfter: -1})
		for i := 0; i < 3; i++ {
			s.ScheduleAt(100, func() {}) // seqs 0, 1, 2 in one slot
		}
		if mutate {
			s.SwapLoaded(0, 1)
		}
		s.Run()
		c.Sweep()
		return c.Report()
	}
	if rep := run(false); rep.Total != 0 || rep.EventsChecked != 3 {
		t.Fatalf("in-order slot: %d violation(s) %v, %d events checked", rep.Total, rep.Violations, rep.EventsChecked)
	}
	rep := run(true)
	want := check.Violation{Time: 100, Rule: "fel-order", Detail: "event seq not increasing at 100ps: seq 0 after seq 1"}
	if rep.Total != 1 || rep.Violations[0] != want || rep.EventsChecked != 3 {
		t.Fatalf("mutant slot: %d violation(s) %v, %d events checked; want %v", rep.Total, rep.Violations, rep.EventsChecked, want)
	}
}

// TestKernelOrderProbeAcrossRuns: the probe compares across RunUntil
// calls and the reference heap's loop alike, and a checker attached
// mid-run counts only the events executed after it.
func TestKernelOrderProbeAcrossRuns(t *testing.T) {
	for _, ref := range []bool{false, true} {
		s := sim.New()
		if ref {
			s.UseReferenceFEL()
		}
		for i := 0; i < 10; i++ {
			s.ScheduleAt(sim.Time(i*100), func() {})
		}
		s.RunUntil(450)
		c := check.New(check.Target{Sim: s}, check.Config{WatchdogAfter: -1})
		s.ScheduleAt(450, func() {}) // at the horizon, under the next seq
		s.RunUntil(700)
		s.Run()
		c.Sweep()
		if rep := c.Report(); rep.Total != 0 || rep.EventsChecked != 6 {
			t.Errorf("reference heap %v: %d violation(s) %v, %d events checked, want 6", ref, rep.Total, rep.Violations, rep.EventsChecked)
		}
	}
}

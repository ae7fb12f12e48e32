package main

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// workload is one named input of the benchmark. The reason each exists
// is recorded once, in BENCHMARK.json's "why" (and expanded in
// README.md); the numbers here only size it.
type workload struct {
	name string
	// reps is the default repetition count (operations per untraced
	// run); -seconds stops earlier.
	reps int
	// sweep marks the one workload that drives core.RunWindySweepOpts
	// instead of a single Instance.
	sweep bool
	// radix and the windows are applied to core.Default(radix).
	radix           int
	warmup, measure sim.Duration
	// shape sets the traffic mix; nil keeps core.Default's.
	shape func(*core.Scenario)
	// paperTotal/paperNonHot are Table II's values for the one workload
	// the model is validated on (0 elsewhere: unvalidated, no error
	// figure).
	paperTotal, paperNonHot float64
	// ckpt adds the checkpoint/restore leg to the traced ladder.
	ckpt bool
}

// sweepFracB is the B-node share of the Figure-5-shaped sweep.
const sweepFracB = 25

var workloads = []workload{
	{
		name: "uniform_r18", reps: 7, radix: 18,
		warmup: 2 * sim.Millisecond, measure: 20 * sim.Millisecond,
		shape: func(s *core.Scenario) {
			s.FracBPct, s.PPercent, s.CCOn = 100, 0, false
		},
	},
	{
		name: "moving_cc_r18", reps: 7, radix: 18,
		warmup: 2 * sim.Millisecond, measure: 40 * sim.Millisecond,
		shape: func(s *core.Scenario) {
			s.FracBPct, s.PPercent = 50, 60
			s.HotspotLifetime = 250 * sim.Microsecond
		},
	},
	{
		// Table II's "hotspots, CC on" row is core.Default itself:
		// 80 % C / 20 % V, 8 static hotspots, ibcc on.
		name: "silent_cc_r36", reps: 5, radix: 36,
		warmup: 4 * sim.Millisecond, measure: 36 * sim.Millisecond,
		paperTotal: 1543.8, paperNonHot: 2.246,
		ckpt: true,
	},
	{
		name: "sweep_obs_r12", reps: 4, sweep: true, radix: 12,
		warmup: 4 * sim.Millisecond, measure: 8 * sim.Millisecond,
	},
}

// smokeRadix and the smoke windows shrink every workload to test scale
// (bench_test.go) while keeping the code path identical.
const (
	smokeRadix   = 8
	smokeWarmup  = 100 * sim.Microsecond
	smokeMeasure = 200 * sim.Microsecond
)

// scenario returns the workload's scenario (the sweep's base scenario)
// for a seed. The seed reaches the simulator only through Scenario.Seed.
func (w *workload) scenario(seed uint64, smoke bool) core.Scenario {
	radix, warmup, measure := w.radix, w.warmup, w.measure
	if smoke {
		radix, warmup, measure = smokeRadix, smokeWarmup, smokeMeasure
	}
	s := core.Default(radix)
	s.Name = w.name
	s.Seed = seed
	s.Warmup, s.Measure = warmup, measure
	if w.shape != nil {
		w.shape(&s)
	}
	if smoke && s.HotspotLifetime > 0 {
		s.HotspotLifetime = 50 * sim.Microsecond
	}
	return s
}

// warmupScenario is the untimed first run of every child: the same
// scenario over a 1 ms window, so code, heap and pools are paged in
// before anything is timed.
func warmupScenario(s core.Scenario) core.Scenario {
	s.Warmup = 100 * sim.Microsecond
	if s.Measure > sim.Millisecond {
		s.Measure = sim.Millisecond
	}
	return s
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

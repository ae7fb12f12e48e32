package sim

import (
	"slices"
	"time"
)

// Steady-state kernel workload shared by BenchmarkKernelSteadyState and
// the paperbench bench-kernel command: a fixed population of actors, each
// rescheduling itself after a pseudo-random near-future delay drawn from
// the span the fabric model actually schedules over (credit returns at
// ~10 ns propagation up to ~4 us generator wakeups). The pending-event
// count holds at the actor count, so the run isolates the future-event
// list's push/pop cost at a realistic queue depth.

// steadyActor is one self-rescheduling workload element.
type steadyActor struct {
	s   *Simulator
	rng *RNG
	// stop is the shared remaining-event budget; the first actor to see
	// it exhausted stops the run.
	stop *int64
}

// Act implements Action.
func (a *steadyActor) Act() {
	*a.stop--
	if *a.stop <= 0 {
		a.s.Stop()
		return
	}
	// Delays span 16 ns .. ~4.1 us in 16 ns steps, mimicking the mix of
	// serialization, propagation and wakeup horizons of the fabric.
	d := Duration(16+16*(a.rng.Uint64()&0xff)) * Nanosecond
	a.s.ScheduleAction(d, a)
}

// SteadyStateWorkload runs `events` events through a fresh simulator
// with `actors` concurrently pending self-rescheduling events and
// returns the simulator (for Processed/Pending inspection). It is
// deterministic for a given (actors, events, seed).
func SteadyStateWorkload(actors int, events int64, seed uint64) *Simulator {
	s := steadyState(actors, events, seed)
	s.Run()
	return s
}

// steadyState builds SteadyStateWorkload's simulator without running it.
func steadyState(actors int, events int64, seed uint64) *Simulator {
	s := New()
	rng := NewRNG(seed)
	budget := events
	for i := 0; i < actors; i++ {
		a := &steadyActor{s: s, rng: rng.Derive(uint64(i)), stop: &budget}
		d := Duration(16+16*(a.rng.Uint64()&0xff)) * Nanosecond
		s.ScheduleAction(d, a)
	}
	return s
}

// WheelVsReference runs the steady-state workload in pairs — once on
// the timing wheel, then once on the reference binary heap
// (UseReferenceFEL) — and returns the median over pairs of the wheel's
// time per event divided by the heap's. The two halves of a pair run
// back to back under the same host load, so the ratio measures the
// wheel on any host, and the median ignores the pairs a load burst
// split.
func WheelVsReference(actors int, events int64, pairs int) float64 {
	nsPerEvent := func(onHeap bool) float64 {
		s := steadyState(actors, events, 1)
		if onHeap {
			s.UseReferenceFEL()
		}
		start := time.Now()
		s.Run()
		return float64(time.Since(start).Nanoseconds()) / float64(s.Processed())
	}
	ratios := make([]float64, pairs)
	for i := range ratios {
		ratios[i] = nsPerEvent(false) / nsPerEvent(true)
	}
	slices.Sort(ratios)
	return (ratios[(pairs-1)/2] + ratios[pairs/2]) / 2
}

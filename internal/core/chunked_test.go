package core

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// chunkedSig runs s like Execute, but cuts the run into RunUntil slices
// of random length — from single picoseconds (so slices end on and
// between events of one instant) to a few microseconds.
func chunkedSig(t *testing.T, s Scenario, rng *rand.Rand) (KernelSignature, int) {
	t.Helper()
	in, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	dig := in.AttachDigest()
	in.executed = true
	in.start()
	simr := in.Net.Sim()
	end := sim.Time(0).Add(s.Warmup + s.Measure)
	slices := 0
	for now := simr.Now(); now < end; now = simr.Now() {
		var step sim.Duration
		switch rng.Intn(4) {
		case 0:
			step = sim.Duration(rng.Intn(3)) // 0–2 ps: the same instant again, or the very next
		case 1:
			step = sim.Duration(rng.Intn(10_000)) // within one propagation delay
		default:
			step = sim.Duration(rng.Intn(4_000_000))
		}
		next := now.Add(step)
		if next > end {
			next = end
		}
		simr.RunUntil(next)
		slices++
	}
	return ckptSig(dig, in.reduce()), slices
}

// TestChunkedRunMatchesSingleRun: one RunUntil(end) and the same run
// cut into random slices must agree on the full KernelSignature —
// digest, record count, every aggregate and CC counter, and the
// executed-event count. Between slices the kernel's position is the
// only thing that says whether a reserved key has had its turn; a wrong
// answer there arms a serializer-done event that should not exist (or
// panics inserting it behind the clock), or folds a credit update
// early, and the signatures part.
func TestChunkedRunMatchesSingleRun(t *testing.T) {
	if testing.Short() {
		t.Skip("chunked-run corpus is not short")
	}
	windy := faultBase(6)
	windy.FracBPct, windy.PPercent = 25, 60

	moving := faultBase(2)
	moving.HotspotLifetime = 150 * sim.Microsecond

	faulted := faultBase(7)
	faulted.Faults = synthFor(t, &faulted, 77, 0.7)

	vl := faultBase(4)
	vl.SeparateHotspotVL = true

	saf := faultBase(9)
	saf.Fabric.CutThrough = false

	for i, c := range []struct {
		name string
		s    Scenario
	}{
		{"windy", windy}, {"moving", moving}, {"faulted", faulted}, {"separate-vl", vl}, {"store-and-forward", saf},
	} {
		c.s.Name = "chunked " + c.name
		straight := straightSig(t, c.s)
		chunked, slices := chunkedSig(t, c.s, rand.New(rand.NewSource(int64(13+i))))
		if slices < 200 {
			t.Fatalf("%s: only %d slices", c.name, slices)
		}
		requireIdentical(t, c.s.Name, straight, chunked)
	}
}

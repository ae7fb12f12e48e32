package fault

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// synthLabel isolates the synthesizer's RNG stream from the injector's
// per-class streams (which derive from the resulting plan's seed).
const synthLabel = 0xfa017

// SynthConfig parameterizes Synth.
type SynthConfig struct {
	// Seed drives both the synthesis choices and the resulting plan.
	Seed uint64
	// Intensity in [0, 1] scales everything: 0 synthesizes a zero plan,
	// 1 the heaviest sweep point (a sizeable fraction of links flapping
	// or degraded and aggressive control-plane loss).
	Intensity float64
	// Links is the faultable link set, typically FabricLinks(topology).
	Links []LinkRef
	// Horizon is the run end; all faults are placed in the middle of it
	// so warmup is clean and recovery is observable.
	Horizon sim.Time
	// SampleEvery is copied into the plan (see Plan.SampleEvery).
	SampleEvery sim.Duration
}

// Synth builds a fault plan deterministically from (seed, intensity):
// the same config always yields the identical plan, and intensity scales
// fault count, degradation depth, and drop probabilities together.
func Synth(cfg SynthConfig) (*Plan, error) {
	if cfg.Intensity < 0 || cfg.Intensity > 1 || cfg.Intensity != cfg.Intensity {
		return nil, fmt.Errorf("fault: intensity %v outside [0, 1]", cfg.Intensity)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("fault: synth needs a positive horizon")
	}
	p := &Plan{Seed: cfg.Seed, Horizon: cfg.Horizon, SampleEvery: cfg.SampleEvery}
	in := cfg.Intensity
	if in == 0 || len(cfg.Links) == 0 {
		return p, nil
	}

	rng := sim.NewRNG(cfg.Seed).Derive(synthLabel)
	// Fault windows live in [25%, 65%] of the horizon; durations span
	// 2–8% of it. Everything ends well before the horizon so the run
	// can measure recovery.
	lo := sim.Time(float64(cfg.Horizon) * 0.25)
	hi := sim.Time(float64(cfg.Horizon) * 0.65)
	minDur := sim.Duration(float64(cfg.Horizon) * 0.02)
	maxDur := sim.Duration(float64(cfg.Horizon) * 0.08)
	window := func() (sim.Time, sim.Duration) {
		dur := minDur + sim.Duration(rng.Intn(int(maxDur-minDur)+1))
		span := int(hi.Sub(lo) - dur)
		at := lo
		if span > 0 {
			at = at.Add(sim.Duration(rng.Intn(span)))
		}
		return at, dur
	}

	count := func(pool int, frac float64) int {
		n := int(math.Round(in * frac * float64(pool)))
		if n > pool {
			n = pool
		}
		return n
	}

	// Flaps and degrades draw from all links, stalls from switch ports
	// only. One Perm per fault family keeps the choices independent of
	// each other's counts.
	links := cfg.Links
	for _, i := range rng.Perm(len(links))[:count(len(links), 0.15)] {
		at, dur := window()
		p.Flaps = append(p.Flaps, Flap{Link: links[i], At: at, Dur: dur})
	}
	for _, i := range rng.Perm(len(links))[:count(len(links), 0.15)] {
		at, dur := window()
		factor := 2 + 6*in*rng.Float64() // up to 8x slower at intensity 1
		p.Degrades = append(p.Degrades, Degrade{Link: links[i], At: at, Dur: dur, Factor: factor})
	}
	if sw := SwitchLinks(links); len(sw) > 0 {
		for _, i := range rng.Perm(len(sw))[:count(len(sw), 0.10)] {
			at, dur := window()
			p.Stalls = append(p.Stalls, Stall{Link: sw[i], At: at, Dur: dur})
		}
	}

	// Control-plane loss scales faster than data loss: the paper's CC
	// mechanism is exercised hardest when its signalling is unreliable
	// while the data plane mostly keeps flowing.
	p.Drop = DropProbs{
		Data:   0.005 * in,
		FECN:   0.02 * in,
		CNP:    0.30 * in,
		Ack:    0.05 * in,
		Credit: 0.01 * in,
	}
	if err := p.Validate(cfg.Links); err != nil {
		return nil, err
	}
	return p, nil
}

package core

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// degradationPlanSalt decorrelates the synthesized fault-plan seed from
// the scenario's traffic seed: both RNG trees are rooted in NewRNG(seed)
// derivations, so handing the raw scenario seed to the plan would alias
// the injector's low drop-class labels with the traffic tree's low
// labels. The salt (plus an intensity-index stride) keeps every
// (seed, intensity) cell on its own plan while the plan stays identical
// across the backends that run the cell.
const degradationPlanSalt = 0x5fa017ba5e

// degradationSamples is how many rate-sampler windows the synthesized
// plans spread over the run; enough resolution for the recovery metric
// without swamping Stats with samples.
const degradationSamples = 64

// degradationPlans synthesizes the bracket's fault plans over base's
// fabric and windows, one per (intensity, seed) cell in intensity-major
// order. One topology build serves every synthesis: the link set
// depends only on the radix.
func degradationPlans(base Scenario, intensities []float64, seeds []uint64) ([]*fault.Plan, error) {
	tp, err := topo.FatTree(base.Radix)
	if err != nil {
		return nil, err
	}
	links := fault.FabricLinks(tp)
	horizon := sim.Time(0).Add(base.Warmup + base.Measure)
	plans := make([]*fault.Plan, 0, len(intensities)*len(seeds))
	for ii, in := range intensities {
		for _, seed := range seeds {
			plan, err := fault.Synth(fault.SynthConfig{
				Seed:        seed ^ (degradationPlanSalt + uint64(ii)*0x9e3779b97f4a7c15),
				Intensity:   in,
				Links:       links,
				Horizon:     horizon,
				SampleEvery: (base.Warmup + base.Measure) / degradationSamples,
			})
			if err != nil {
				return nil, err
			}
			plans = append(plans, plan)
		}
	}
	return plans, nil
}

// bracketScore scores one run of a hotspot scenario: the Jain index of
// the non-hotspot receive rates times 0.8·efficiency + 0.2·hotspot
// utilisation. Efficiency is the non-hotspot mean over TMaxGbps and
// utilisation the hotspot mean over the sink rate, each clamped to 1.
// Victim restoration dominates; the hotspot term keeps a backend that
// strangles the sinks from scoring as well as one that keeps them busy.
func bracketScore(r *Result, sinkGbps float64) float64 {
	hot := make(map[int]bool, len(r.Hotspots))
	for _, h := range r.Hotspots {
		hot[int(h)] = true
	}
	var nonhot []float64
	var sum, hotSum float64
	for node, rx := range r.Rates.RxPayload {
		if hot[node] {
			hotSum += rx
			continue
		}
		nonhot = append(nonhot, rx)
		sum += rx
	}
	eff := min(sum/float64(len(nonhot))/1e9/r.TMaxGbps, 1)
	util := min(hotSum/float64(len(r.Hotspots))/1e9/sinkGbps, 1)
	return metrics.Jain(nonhot) * (0.8*eff + 0.2*util)
}

// TestBackendsBracketTheMechanism: on the hotspot forest, with and
// without faults, the clairvoyant oracle scores at least what the IB CC
// annex does, and the annex at least what doing nothing does —
// oracle ≥ ibcc ≥ nocc, seed-averaged. The annex must mark; the two
// bounds must not.
func TestBackendsBracketTheMechanism(t *testing.T) {
	if testing.Short() {
		t.Skip("bracket runs are not short")
	}
	base := Default(8)
	base.Warmup = 400 * sim.Microsecond
	base.Measure = 800 * sim.Microsecond
	base.CCOn = true
	intensities := []float64{0, 0.6}
	seeds := []uint64{1, 2}
	backends := []string{"oracle", "ibcc", "nocc"}
	plans, err := degradationPlans(base, intensities, seeds)
	if err != nil {
		t.Fatal(err)
	}
	var scenarios []Scenario
	for ii, in := range intensities {
		for si, seed := range seeds {
			for _, b := range backends {
				s := base
				s.Seed = seed
				s.Faults = plans[ii*len(seeds)+si]
				if s.Faults.Zero() != (in == 0) {
					t.Fatalf("intensity %v seed %d: plan zero = %v", in, seed, s.Faults.Zero())
				}
				s.Backend = b
				s.Name = fmt.Sprintf("bracket in=%.2f seed=%d cc=%s", in, seed, b)
				scenarios = append(scenarios, s)
			}
		}
	}
	res, err := runBatch(Opts{Workers: WorkersAll}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	sink := base.Fabric.SinkRate.Gbps()
	for ii, in := range intensities {
		score := make(map[string]*stats.Acc, len(backends))
		for _, b := range backends {
			score[b] = new(stats.Acc)
		}
		for si := range seeds {
			for bi, b := range backends {
				r := res[(ii*len(seeds)+si)*len(backends)+bi]
				score[b].Add(bracketScore(r, sink))
				if marks := r.CCStats.FECNMarked; (b == "ibcc") != (marks > 0) {
					t.Errorf("intensity %v seed %d: %s marked %d packets", in, seeds[si], b, marks)
				}
			}
		}
		oracle, ibcc, nocc := score["oracle"].Mean(), score["ibcc"].Mean(), score["nocc"].Mean()
		t.Logf("intensity %v: oracle %.4f  ibcc %.4f  nocc %.4f", in, oracle, ibcc, nocc)
		if oracle < ibcc {
			t.Errorf("intensity %v: oracle score %.4f below ibcc %.4f — the upper bound lost to the mechanism", in, oracle, ibcc)
		}
		if ibcc < nocc {
			t.Errorf("intensity %v: ibcc score %.4f below nocc %.4f — the mechanism lost to doing nothing", in, ibcc, nocc)
		}
	}
}

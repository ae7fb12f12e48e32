package core

import (
	"fmt"
	"io"

	"repro/internal/fault"
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
// across the CC-off and CC-on legs of the cell.
const degradationPlanSalt = 0x5fa017ba5e

// degradationSamples is how many rate-sampler windows the synthesized
// plans spread over the run; enough resolution for the recovery metric
// without swamping Stats with samples.
const degradationSamples = 64

// DegradationLeg aggregates one CC setting of one sweep point across
// seeds: the receive-rate aggregates, the intentional-loss tallies, and
// the recovery behaviour.
type DegradationLeg struct {
	// AllGbps / TotalGbps are mean receive rate over all nodes and mean
	// total throughput (Gbit/s), with 95% confidence half-widths.
	AllGbps   float64 `json:"all_gbps"`
	AllCI95   float64 `json:"all_ci95"`
	TotalGbps float64 `json:"total_gbps"`
	TotalCI95 float64 `json:"total_ci95"`
	// DroppedPackets / DroppedCredits are the mean per-run counts of
	// intentionally lost packets and deferred credit updates.
	DroppedPackets float64 `json:"dropped_packets"`
	DroppedCredits float64 `json:"dropped_credits"`
	// RecoveryUS is the mean recovery time (µs) over the runs that
	// recovered; Recovered of Seeds runs did. Runs without scheduled
	// faults (intensity 0) report Recovered == Seeds trivially.
	RecoveryUS float64 `json:"recovery_us"`
	Recovered  int     `json:"recovered"`
	Seeds      int     `json:"seeds"`
}

// DegradationPoint is one fault intensity of a graceful-degradation
// sweep: the same synthesized fault plans run with CC off and on.
type DegradationPoint struct {
	Intensity float64        `json:"intensity"`
	Off       DegradationLeg `json:"cc_off"`
	On        DegradationLeg `json:"cc_on"`
}

// RunDegradationOpts sweeps fault intensity × CC on/off over the base
// scenario: at each intensity a fault plan is synthesized per seed
// (identical across the two CC legs, so the legs differ only in the
// mechanism under test) and the receive-rate and recovery curves are
// aggregated across seeds. Intensity 0 synthesizes a zero plan, which
// the runner treats as absent — that point is the unfaulted baseline.
// The 2*len(intensities)*len(seeds) runs are independent and fan out
// across the worker pool.
func RunDegradationOpts(base Scenario, intensities []float64, seeds []uint64, o Opts) ([]DegradationPoint, error) {
	if len(intensities) == 0 || len(seeds) == 0 {
		return nil, fmt.Errorf("core: degradation sweep needs intensities and seeds")
	}
	// One topology build serves every plan synthesis: the link set
	// depends only on the radix.
	tp, err := topo.FatTree(base.Radix)
	if err != nil {
		return nil, err
	}
	links := fault.FabricLinks(tp)
	horizon := sim.Time(0).Add(base.Warmup + base.Measure)

	scenarios := make([]Scenario, 0, 2*len(intensities)*len(seeds))
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
			s := base
			s.Seed = seed
			s.Faults = plan
			s.CCOn = false
			s.Name = fmt.Sprintf("degradation in=%.2f seed=%d ccOff", in, seed)
			scenarios = append(scenarios, s)
			s.CCOn = true
			s.Name = fmt.Sprintf("degradation in=%.2f seed=%d ccOn", in, seed)
			scenarios = append(scenarios, s)
		}
	}
	results, err := runBatch(o, scenarios)
	if err != nil {
		return nil, err
	}

	out := make([]DegradationPoint, 0, len(intensities))
	idx := 0
	for _, in := range intensities {
		pt := DegradationPoint{Intensity: in}
		var acc [2]struct {
			all, total, dropped, credits, recovery stats.Acc
			recovered, seeds                       int
		}
		for range seeds {
			for leg := 0; leg < 2; leg++ {
				r := results[idx]
				idx++
				a := &acc[leg]
				a.seeds++
				a.all.Add(r.Summary.AllAvgGbps)
				a.total.Add(r.Summary.TotalGbps)
				if r.Faults != nil {
					a.dropped.Add(float64(r.Faults.DroppedPackets()))
					a.credits.Add(float64(r.Faults.DroppedCredits))
				}
				if r.Faults.Recovered() {
					a.recovered++
					if r.Faults != nil && r.Faults.Recovery > 0 {
						a.recovery.Add(r.Faults.Recovery.Seconds() * 1e6)
					}
				}
			}
		}
		for leg, dst := range []*DegradationLeg{&pt.Off, &pt.On} {
			a := &acc[leg]
			dst.AllGbps, dst.AllCI95 = a.all.Mean(), a.all.CI95()
			dst.TotalGbps, dst.TotalCI95 = a.total.Mean(), a.total.CI95()
			dst.DroppedPackets = a.dropped.Mean()
			dst.DroppedCredits = a.credits.Mean()
			dst.RecoveryUS = a.recovery.Mean()
			dst.Recovered, dst.Seeds = a.recovered, a.seeds
		}
		out = append(out, pt)
	}
	return out, nil
}

// PrintDegradation writes the sweep as a graceful-degradation table:
// receive rate and recovery per intensity, CC off versus on.
func PrintDegradation(w io.Writer, pts []DegradationPoint) {
	fmt.Fprintf(w, "Graceful degradation under injected faults\n")
	fmt.Fprintf(w, "  %9s  %9s %9s  %10s %10s  %11s %11s  %9s %9s\n",
		"intensity", "allOff", "allOn", "dropOff", "dropOn", "recovOff", "recovOn", "okOff", "okOn")
	for _, pt := range pts {
		fmt.Fprintf(w, "  %9.2f  %9.3f %9.3f  %10.1f %10.1f  %9.1fus %9.1fus  %5d/%-3d %5d/%-3d\n",
			pt.Intensity,
			pt.Off.AllGbps, pt.On.AllGbps,
			pt.Off.DroppedPackets, pt.On.DroppedPackets,
			pt.Off.RecoveryUS, pt.On.RecoveryUS,
			pt.Off.Recovered, pt.Off.Seeds, pt.On.Recovered, pt.On.Seeds)
	}
}

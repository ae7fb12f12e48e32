package core

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// TableII holds the five row groups of the paper's Table II (silent
// congestion trees on the full population): rates in Gbit/s.
type TableII struct {
	// NoHotspotsNoCC / NoHotspotsCC: only the V nodes send, uniformly.
	NoHotspotsNoCC float64
	NoHotspotsCC   float64
	// HotspotsNoCC / HotspotsCC: the C nodes flood the 8 hotspots.
	HotspotsNoCC struct{ Hot, NonHot float64 }
	HotspotsCC   struct{ Hot, NonHot float64 }
	// Totals are the total network throughput with hotspots active.
	TotalNoCC float64
	TotalCC   float64
}

// TableIIScenarios derives Table II's four configurations (hotspots
// off/on × CC off/on, in the table's row order) from one base scenario.
// The differential kernel check reuses them as its validation corpus.
func TableIIScenarios(base Scenario) []Scenario {
	configs := []struct{ ccOn, cActive bool }{
		{false, false}, {true, false}, {false, true}, {true, true},
	}
	scenarios := make([]Scenario, len(configs))
	for i, c := range configs {
		s := base
		s.FracBPct = 0
		s.CCOn = c.ccOn
		s.CNodesActive = c.cActive
		s.Name = fmt.Sprintf("tableII cc=%v hotspots=%v", c.ccOn, c.cActive)
		scenarios[i] = s
	}
	return scenarios
}

// RunTableIIOpts reproduces Table II: four configurations of the silent
// forest scenario plus total-throughput rows, from one base scenario
// (use Default(radix) and adjust Warmup/Measure/Seed). The four
// configurations are independent and run concurrently under Workers>1.
func RunTableIIOpts(base Scenario, o Opts) (*TableII, error) {
	results, err := runBatch(o, TableIIScenarios(base))
	if err != nil {
		return nil, err
	}
	t := &TableII{}
	t.NoHotspotsNoCC = results[0].Summary.AllAvgGbps
	t.NoHotspotsCC = results[1].Summary.AllAvgGbps
	t.HotspotsNoCC.Hot = results[2].Summary.HotspotAvgGbps
	t.HotspotsNoCC.NonHot = results[2].Summary.NonHotspotAvgGbps
	t.TotalNoCC = results[2].Summary.TotalGbps
	t.HotspotsCC.Hot = results[3].Summary.HotspotAvgGbps
	t.HotspotsCC.NonHot = results[3].Summary.NonHotspotAvgGbps
	t.TotalCC = results[3].Summary.TotalGbps
	return t, nil
}

// Print writes the table in the paper's row order.
func (t *TableII) Print(w io.Writer) {
	fmt.Fprintf(w, "Table II: performance numbers (Gbps), silent congestion trees\n")
	fmt.Fprintf(w, "  No hotspots, no CC : avg receive rate        %7.3f\n", t.NoHotspotsNoCC)
	fmt.Fprintf(w, "  No hotspots, CC on : avg receive rate        %7.3f\n", t.NoHotspotsCC)
	fmt.Fprintf(w, "  Hotspots, no CC    : hotspots avg rcv        %7.3f\n", t.HotspotsNoCC.Hot)
	fmt.Fprintf(w, "                       non-hotspots avg rcv    %7.3f\n", t.HotspotsNoCC.NonHot)
	fmt.Fprintf(w, "  Hotspots, CC on    : hotspots avg rcv        %7.3f\n", t.HotspotsCC.Hot)
	fmt.Fprintf(w, "                       non-hotspots avg rcv    %7.3f\n", t.HotspotsCC.NonHot)
	fmt.Fprintf(w, "  Total throughput   : without CC              %7.1f\n", t.TotalNoCC)
	fmt.Fprintf(w, "                       with CC                 %7.1f\n", t.TotalCC)
	if t.TotalNoCC > 0 {
		fmt.Fprintf(w, "  Improvement by enabling CC: %.2fx\n", t.TotalCC/t.TotalNoCC)
	}
}

// WindyPoint is one p-value of a windy-forest sweep (figures 5–8): all
// rates in Gbit/s, Improvement is the total-throughput factor plotted in
// sub-figure (c).
type WindyPoint struct {
	P           int
	NonHotOff   float64
	NonHotOn    float64
	HotOff      float64
	HotOn       float64
	TotalOff    float64
	TotalOn     float64
	TMax        float64
	Improvement float64
}

// RunWindySweepOpts reproduces one of figures 5–8: the base scenario
// with fracB percent B nodes, swept over the given p values, with CC off
// and on at each point. The 2*len(ps) runs are independent and fan out
// across the worker pool.
func RunWindySweepOpts(base Scenario, fracB int, ps []int, o Opts) ([]WindyPoint, error) {
	scenarios := make([]Scenario, 0, 2*len(ps))
	for _, p := range ps {
		s := base
		s.FracBPct = fracB
		s.PPercent = p
		s.CNodesActive = true
		s.CCOn = false
		s.Name = fmt.Sprintf("windy B=%d%% p=%d ccOff", fracB, p)
		scenarios = append(scenarios, s)
		s.CCOn = true
		s.Name = fmt.Sprintf("windy B=%d%% p=%d ccOn", fracB, p)
		scenarios = append(scenarios, s)
	}
	results, err := runBatch(o, scenarios)
	if err != nil {
		return nil, err
	}
	out := make([]WindyPoint, 0, len(ps))
	for i, p := range ps {
		off, on := results[2*i], results[2*i+1]
		pt := WindyPoint{
			P:         p,
			TMax:      scenarios[2*i].TMaxNonHotspotGbps(),
			NonHotOff: off.Summary.NonHotspotAvgGbps,
			HotOff:    off.Summary.HotspotAvgGbps,
			TotalOff:  off.Summary.TotalGbps,
			NonHotOn:  on.Summary.NonHotspotAvgGbps,
			HotOn:     on.Summary.HotspotAvgGbps,
			TotalOn:   on.Summary.TotalGbps,
		}
		if pt.TotalOff > 0 {
			pt.Improvement = pt.TotalOn / pt.TotalOff
		}
		out = append(out, pt)
	}
	return out, nil
}

// PrintWindy writes a windy sweep as the three series of one paper
// figure: (a) non-hotspot receive rates with tmax, (b) hotspot receive
// rates, (c) total throughput improvement.
func PrintWindy(w io.Writer, fig string, fracB int, pts []WindyPoint) {
	fmt.Fprintf(w, "Figure %s: windy forest, %d%% B nodes\n", fig, fracB)
	fmt.Fprintf(w, "  %4s  %9s %9s %9s  %9s %9s  %12s\n",
		"p", "nonhotOff", "nonhotOn", "tmax", "hotOff", "hotOn", "improvement")
	for _, pt := range pts {
		fmt.Fprintf(w, "  %4d  %9.3f %9.3f %9.3f  %9.3f %9.3f  %11.2fx\n",
			pt.P, pt.NonHotOff, pt.NonHotOn, pt.TMax, pt.HotOff, pt.HotOn, pt.Improvement)
	}
}

// MovingPoint is one hotspot lifetime of a moving-forest sweep
// (figures 9–10): the average receive rate over all nodes, CC off/on.
type MovingPoint struct {
	Lifetime sim.Duration
	AllOff   float64
	AllOn    float64
}

// RunMovingSweepOpts reproduces one series of figures 9 or 10: the base
// scenario (node mix and p already set) swept over hotspot lifetimes.
// The 2*len(lifetimes) runs are independent and fan out across the
// worker pool.
func RunMovingSweepOpts(base Scenario, lifetimes []sim.Duration, o Opts) ([]MovingPoint, error) {
	scenarios := make([]Scenario, 0, 2*len(lifetimes))
	for _, lt := range lifetimes {
		s := base
		s.HotspotLifetime = lt
		s.CNodesActive = true
		// The window must span several hotspot lifetimes for the
		// average to be meaningful.
		if min := 6 * lt; s.Measure < min {
			s.Measure = min
		}
		s.CCOn = false
		s.Name = fmt.Sprintf("moving lt=%v ccOff", lt)
		scenarios = append(scenarios, s)
		s.CCOn = true
		s.Name = fmt.Sprintf("moving lt=%v ccOn", lt)
		scenarios = append(scenarios, s)
	}
	results, err := runBatch(o, scenarios)
	if err != nil {
		return nil, err
	}
	out := make([]MovingPoint, 0, len(lifetimes))
	for i, lt := range lifetimes {
		out = append(out, MovingPoint{
			Lifetime: lt,
			AllOff:   results[2*i].Summary.AllAvgGbps,
			AllOn:    results[2*i+1].Summary.AllAvgGbps,
		})
	}
	return out, nil
}

// PrintMoving writes a moving sweep as one series of figures 9–10.
func PrintMoving(w io.Writer, fig, label string, pts []MovingPoint) {
	fmt.Fprintf(w, "Figure %s: moving congestion trees, %s\n", fig, label)
	fmt.Fprintf(w, "  %12s  %10s %10s  %8s\n", "lifetime", "allOff", "allOn", "gain")
	for _, pt := range pts {
		gain := 0.0
		if pt.AllOff > 0 {
			gain = pt.AllOn / pt.AllOff
		}
		fmt.Fprintf(w, "  %12v  %10.3f %10.3f  %7.2fx\n", pt.Lifetime, pt.AllOff, pt.AllOn, gain)
	}
}

// PaperPValues are the p values the paper sweeps in figures 5–8.
func PaperPValues() []int {
	return []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
}

// PaperLifetimes returns the paper's hotspot lifetimes (10 ms down to
// 1 ms).
func PaperLifetimes() []sim.Duration {
	ms := []sim.Duration{10, 8, 6, 5, 4, 3, 2, 1}
	for i := range ms {
		ms[i] *= sim.Millisecond
	}
	return ms
}

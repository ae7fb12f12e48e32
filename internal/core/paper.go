package core

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/sim"
)

// PaperRow is one CC-off/CC-on comparison of the paper's evaluation: a
// Table II row, one p of figures 5–8 or one hotspot lifetime of
// figures 9–10. Off and On differ only in CCOn and Name.
type PaperRow struct {
	Exp     string // the experiment it belongs to: table2, fig5 … fig10
	Series  string // the heading it prints under
	Off, On Scenario
}

// PaperRecord is a row with the results of its two scenarios.
type PaperRecord struct {
	Row     PaperRow
	Off, On *Result
}

// Paper returns every row of the paper's evaluation, Table II and
// figures 5–10 in print order, derived from one base scenario; ps are
// the p values of figures 5–8.
func Paper(base Scenario, ps []int) []PaperRow {
	var rows []PaperRow
	add := func(exp, series string, rs []PaperRow) {
		for _, r := range rs {
			r.Exp, r.Series = exp, series
			rows = append(rows, r)
		}
	}
	add("table2", "Table II: performance numbers (Gbps), silent congestion trees", tableIIRows(base))
	for i, fracB := range []int{25, 50, 75, 100} {
		add(fmt.Sprintf("fig%d", 5+i), fmt.Sprintf("Figure %d: windy forest, %d%% B nodes", 5+i, fracB), WindyRows(base, fracB, ps))
	}
	const ms = sim.Millisecond
	lifetimes := []sim.Duration{10 * ms, 8 * ms, 6 * ms, 5 * ms, 4 * ms, 3 * ms, 2 * ms, 1 * ms}
	for i, fracC := range []int{80, 40} {
		s := base
		s.FracBPct, s.FracCOfRestPct = 0, fracC
		add("fig9", fmt.Sprintf("Figure 9(%c): moving congestion trees, %d%% V / %d%% C", 'a'+i, 100-fracC, fracC), MovingRows(s, lifetimes))
	}
	for _, p := range []int{30, 60, 90} {
		s := base
		s.FracBPct, s.PPercent = 100, p
		add("fig10", fmt.Sprintf("Figure 10 p=%d: moving congestion trees, 100%% B nodes, p=%d", p, p), MovingRows(s, lifetimes))
	}
	return rows
}

// tableIIRows are Table II's two rows, hotspots off then on, on the
// silent forest.
func tableIIRows(base Scenario) []PaperRow {
	rows := make([]PaperRow, 2)
	for i, hot := range []bool{false, true} {
		s := base
		s.FracBPct, s.CNodesActive = 0, hot
		rows[i] = pair(s, "")
		for _, leg := range []*Scenario{&rows[i].Off, &rows[i].On} {
			leg.Name = fmt.Sprintf("tableII cc=%v hotspots=%v", leg.CCOn, hot)
		}
	}
	return rows
}

// TableIIScenarios is Table II's rows flattened: hotspots off/on × CC
// off/on, in the table's row order. The differential kernel check
// reuses them as its validation corpus.
func TableIIScenarios(base Scenario) []Scenario { return flatten(tableIIRows(base)) }

// WindyRows are one windy sweep (figures 5–8): the base scenario with
// fracB percent B nodes at each p.
func WindyRows(base Scenario, fracB int, ps []int) []PaperRow {
	rows := make([]PaperRow, len(ps))
	for i, p := range ps {
		s := base
		s.FracBPct, s.PPercent, s.CNodesActive = fracB, p, true
		rows[i] = pair(s, fmt.Sprintf("windy B=%d%% p=%d", fracB, p))
	}
	return rows
}

// MovingRows are one series of figures 9–10: the base scenario (node
// mix and p already set) at each hotspot lifetime. The window spans at
// least six lifetimes, so the average covers several moves.
func MovingRows(base Scenario, lifetimes []sim.Duration) []PaperRow {
	rows := make([]PaperRow, len(lifetimes))
	for i, lt := range lifetimes {
		s := base
		s.HotspotLifetime, s.CNodesActive = lt, true
		s.Measure = max(s.Measure, 6*lt)
		rows[i] = pair(s, fmt.Sprintf("moving lt=%v", lt))
	}
	return rows
}

// pair is s with CC off and on, named name+" ccOff" and name+" ccOn",
// or both s.Name when name is empty.
func pair(s Scenario, name string) PaperRow {
	r := PaperRow{Off: s, On: s}
	r.Off.CCOn, r.On.CCOn = false, true
	if name != "" {
		r.Off.Name, r.On.Name = name+" ccOff", name+" ccOn"
	}
	return r
}

func flatten(rows []PaperRow) []Scenario {
	ss := make([]Scenario, 0, 2*len(rows))
	for _, r := range rows {
		ss = append(ss, r.Off, r.On)
	}
	return ss
}

// RunPairs runs every row's two scenarios as one batch, submitted as
// off₀, on₀, off₁, on₁, …, and returns one record per row. The runs are
// independent and fan out across the worker pool.
func RunPairs(rows []PaperRow, o Opts) ([]PaperRecord, error) {
	results, err := runBatch(o, flatten(rows))
	if err != nil {
		return nil, err
	}
	recs := make([]PaperRecord, len(rows))
	for i, r := range rows {
		recs[i] = PaperRecord{Row: r, Off: results[2*i], On: results[2*i+1]}
	}
	return recs, nil
}

// RunExperiment runs one experiment's rows of Paper as pairs and
// prints them. With more than one seed, Table II is followed by its
// hotspot scenario under base's own name, CC off and on, each run over
// the seeds and printed as means with 95 % confidence intervals.
func RunExperiment(w io.Writer, base Scenario, rows []PaperRow, seeds []uint64, o Opts) error {
	recs, err := RunPairs(rows, o)
	if err != nil {
		return err
	}
	PrintPaper(w, recs)
	if seeds = ciSeeds(rows, seeds); seeds == nil {
		return nil
	}
	base.FracBPct, base.CNodesActive = 0, true
	ci := pair(base, "")
	for i, s := range []Scenario{ci.Off, ci.On} {
		m, err := RunSeedsOpts(s, seeds, o)
		if err != nil {
			return err
		}
		m.Print(w, "Table II hotspot scenario, CC "+[]string{"off", "on"}[i])
	}
	fmt.Fprintln(w)
	return nil
}

// ExperimentSims is the number of simulations RunExperiment submits.
func ExperimentSims(rows []PaperRow, seeds []uint64) int {
	return 2*len(rows) + 2*len(ciSeeds(rows, seeds))
}

// ciSeeds are the seeds RunExperiment runs Table II's confidence
// intervals over: none unless rows hold Table II and seeds are several.
func ciSeeds(rows []PaperRow, seeds []uint64) []uint64 {
	if len(seeds) < 2 || !slices.ContainsFunc(rows, isTableII) {
		return nil
	}
	return seeds
}

// isTableII tells a Table II row, which has neither B nodes nor moving
// hotspots, from the rows of figures 5–10.
func isTableII(r PaperRow) bool { return r.Off.FracBPct == 0 && r.Off.HotspotLifetime == 0 }

// PrintPaper writes records in the paper's formats: each run of
// records that share a Series under that heading (none if empty), then
// a blank line.
func PrintPaper(w io.Writer, recs []PaperRecord) {
	for len(recs) > 0 {
		n := 1
		for n < len(recs) && recs[n].Row.Series == recs[0].Row.Series {
			n++
		}
		series, first := recs[:n], recs[0].Row
		recs = recs[n:]
		if first.Series != "" {
			fmt.Fprintln(w, first.Series)
		}
		switch {
		case isTableII(first): // the uniform baseline, or the hotspot row with the totals
			for _, r := range series {
				off, on := r.Off.Summary, r.On.Summary
				if !r.Row.Off.CNodesActive {
					fmt.Fprintf(w, "  No hotspots, no CC : avg receive rate        %7.3f\n", off.AllAvgGbps)
					fmt.Fprintf(w, "  No hotspots, CC on : avg receive rate        %7.3f\n", on.AllAvgGbps)
					continue
				}
				fmt.Fprintf(w, "  Hotspots, no CC    : hotspots avg rcv        %7.3f\n", off.HotspotAvgGbps)
				fmt.Fprintf(w, "                       non-hotspots avg rcv    %7.3f\n", off.NonHotspotAvgGbps)
				fmt.Fprintf(w, "  Hotspots, CC on    : hotspots avg rcv        %7.3f\n", on.HotspotAvgGbps)
				fmt.Fprintf(w, "                       non-hotspots avg rcv    %7.3f\n", on.NonHotspotAvgGbps)
				fmt.Fprintf(w, "  Total throughput   : without CC              %7.1f\n", off.TotalGbps)
				fmt.Fprintf(w, "                       with CC                 %7.1f\n", on.TotalGbps)
				if off.TotalGbps > 0 {
					fmt.Fprintf(w, "  Improvement by enabling CC: %.2fx\n", on.TotalGbps/off.TotalGbps)
				}
			}
		case first.Off.HotspotLifetime == 0: // figures 5–8: one p a row
			PrintWindy(w, windyPoints(series))
		default: // figures 9–10: one lifetime a row
			fmt.Fprintf(w, "  %12s  %10s %10s  %8s\n", "lifetime", "allOff", "allOn", "gain")
			for _, r := range series {
				off, on := r.Off.Summary.AllAvgGbps, r.On.Summary.AllAvgGbps
				fmt.Fprintf(w, "  %12v  %10.3f %10.3f  %7.2fx\n", r.Row.Off.HotspotLifetime, off, on, ratio(on, off))
			}
		}
		fmt.Fprintln(w)
	}
}

// ratio is on/off, or 0 when off is not positive.
func ratio(on, off float64) float64 {
	if off > 0 {
		return on / off
	}
	return 0
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

// RunWindySweepOpts reproduces one of figures 5–8: WindyRows run as
// pairs and read as points.
func RunWindySweepOpts(base Scenario, fracB int, ps []int, o Opts) ([]WindyPoint, error) {
	recs, err := RunPairs(WindyRows(base, fracB, ps), o)
	if err != nil {
		return nil, err
	}
	return windyPoints(recs), nil
}

func windyPoints(recs []PaperRecord) []WindyPoint {
	pts := make([]WindyPoint, len(recs))
	for i, r := range recs {
		off, on := r.Off.Summary, r.On.Summary
		pts[i] = WindyPoint{
			P:           r.Row.Off.PPercent,
			TMax:        r.Row.Off.TMaxNonHotspotGbps(),
			NonHotOff:   off.NonHotspotAvgGbps,
			HotOff:      off.HotspotAvgGbps,
			TotalOff:    off.TotalGbps,
			NonHotOn:    on.NonHotspotAvgGbps,
			HotOn:       on.HotspotAvgGbps,
			TotalOn:     on.TotalGbps,
			Improvement: ratio(on.TotalGbps, off.TotalGbps),
		}
	}
	return pts
}

// PrintWindy writes a windy sweep in the format of one paper figure's
// three series, one p a line: (a) non-hotspot receive rates with tmax,
// (b) hotspot receive rates, (c) total throughput improvement.
func PrintWindy(w io.Writer, pts []WindyPoint) {
	fmt.Fprintf(w, "  %4s  %9s %9s %9s  %9s %9s  %12s\n",
		"p", "nonhotOff", "nonhotOn", "tmax", "hotOff", "hotOn", "improvement")
	for _, pt := range pts {
		fmt.Fprintf(w, "  %4d  %9.3f %9.3f %9.3f  %9.3f %9.3f  %11.2fx\n",
			pt.P, pt.NonHotOff, pt.NonHotOn, pt.TMax, pt.HotOff, pt.HotOn, pt.Improvement)
	}
}

// PaperPValues are the p values the paper sweeps in figures 5–8.
func PaperPValues() []int {
	return []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
}

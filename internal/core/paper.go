package core

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/ib"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// PaperRow is one CC-off/CC-on comparison of the paper's evaluation: a
// Table II row, one p of figures 5–8 or one hotspot lifetime of
// figures 9–10. Off and On differ only in CCOn and Name.
type PaperRow struct {
	Exp    string // the experiment it belongs to: table2, fig5 … fig10
	Series string // the heading it prints under
	Point  string // its label, unique within Exp
	// Quantities are the numbers the row reports.
	Quantities []Quantity
	Off, On    Scenario
}

// PaperRecord is a row with the results of its two scenarios.
type PaperRecord struct {
	Row     PaperRow
	Off, On *Result
}

// Quantity is one number a row reports: its name, and how ours is read
// from a run and the run's class summary of one window.
type Quantity struct {
	Name string
	Of   func(r *Result, c metrics.Summary) float64
}

// The quantities of the paper's rows. tmax, the scenario's non-hotspot
// maximum that the windy figures plot beside the victims, is the same
// in every window and leg.
var (
	qAll    = Quantity{"all nodes", func(_ *Result, c metrics.Summary) float64 { return c.AllAvgGbps }}
	qHot    = Quantity{"hotspots", func(_ *Result, c metrics.Summary) float64 { return c.HotspotAvgGbps }}
	qNonHot = Quantity{"non-hotspots", func(_ *Result, c metrics.Summary) float64 { return c.NonHotspotAvgGbps }}
	qTotal  = Quantity{"total", func(_ *Result, c metrics.Summary) float64 { return c.TotalGbps }}
	qTMax   = Quantity{"tmax", func(r *Result, _ metrics.Summary) float64 { return r.TMaxGbps }}
)

// paperValues are the paper's numbers, each written once, keyed by
// experiment, point and quantity: Table II's eight, the Fig. 8 peak and
// the Fig. 9 gains at the longest and the shortest hotspot lifetime.
// PAPER.md is truncated, so each cites the repo line it was copied
// from; where the repo does not say whether the paper states a value
// or it was read off a figure, it is marked a figure's.
var paperValues = map[[3]string]telemetry.Paper{
	{"table2", "no hotspots", "all nodes"}: {Value: telemetry.Legs{Off: 2.699, On: 2.701}, Provenance: telemetry.ProvText, Source: "EXPERIMENTS.md:51,52"},
	{"table2", "hotspots", "hotspots"}:     {Value: telemetry.Legs{Off: 13.602, On: 13.279}, Provenance: telemetry.ProvText, Source: "EXPERIMENTS.md:53,55"},
	{"table2", "hotspots", "non-hotspots"}: {Value: telemetry.Legs{Off: 0.168, On: 2.246}, Provenance: telemetry.ProvText, Source: "EXPERIMENTS.md:54,56"},
	{"table2", "hotspots", "total"}:        {Value: telemetry.Legs{Off: 216.1, On: 1543.8}, Provenance: telemetry.ProvText, Source: "EXPERIMENTS.md:57,58"},
	{"fig8", "p=60", "total"}:              {Value: telemetry.Legs{Gain: 17}, Provenance: telemetry.ProvFigure, Source: "EXPERIMENTS.md:119"},
	{"fig9", "(a) 10ms", "all nodes"}:      {Value: telemetry.Legs{Gain: 1.55}, Provenance: telemetry.ProvFigure, Source: "EXPERIMENTS.md:139"},
	{"fig9", "(b) 10ms", "all nodes"}:      {Value: telemetry.Legs{Gain: 2.6}, Provenance: telemetry.ProvFigure, Source: "EXPERIMENTS.md:139"},
	{"fig9", "(a) 1ms", "all nodes"}:       {Value: telemetry.Legs{Gain: 1.04}, Provenance: telemetry.ProvFigure, Source: "EXPERIMENTS.md:142"},
	{"fig9", "(b) 1ms", "all nodes"}:       {Value: telemetry.Legs{Gain: 1.10}, Provenance: telemetry.ProvFigure, Source: "EXPERIMENTS.md:142"},
}

// The relative tolerance of a paper value, by its provenance: a number
// the paper states is exact, so 5 % is all the model is allowed; one
// read off a plot carries the reading's own error, about a quarter.
const (
	tolText   = 0.05
	tolFigure = 0.25
)

// notComparable says why a run of s cannot be held against the paper's
// numbers, or returns "" when it can: the paper ran its 648-node fabric
// for ≈ 0.1 s, and its CC-on numbers contain a ≈ 24 ms CCTI ramp.
func notComparable(s Scenario) string {
	span := s.Warmup + s.Measure
	switch {
	case s.NumNodes() != 648:
		return fmt.Sprintf("radix %d builds %d nodes, not the paper's 648", s.Radix, s.NumNodes())
	case span < 24*sim.Millisecond:
		return fmt.Sprintf("the %v run ends inside the ≈ 24 ms CCTI ramp", span)
	case span < 100*sim.Millisecond:
		return fmt.Sprintf("the %v run is shorter than the paper's ≈ 100 ms", span)
	}
	return ""
}

// Paper returns every row of the paper's evaluation, Table II and
// figures 5–10 in print order, derived from one base scenario; ps are
// the p values of figures 5–8.
func Paper(base Scenario, ps []int) []PaperRow {
	var rows []PaperRow
	add := func(exp, series, point string, rs []PaperRow) {
		for _, r := range rs {
			r.Exp, r.Series, r.Point = exp, series, point+r.Point
			rows = append(rows, r)
		}
	}
	add("table2", "Table II: performance numbers (Gbps), silent congestion trees", "", tableIIRows(base))
	for i, fracB := range []int{25, 50, 75, 100} {
		add(fmt.Sprintf("fig%d", 5+i), fmt.Sprintf("Figure %d: windy forest, %d%% B nodes", 5+i, fracB), "", WindyRows(base, fracB, ps))
	}
	const ms = sim.Millisecond
	lifetimes := []sim.Duration{10 * ms, 8 * ms, 6 * ms, 5 * ms, 4 * ms, 3 * ms, 2 * ms, 1 * ms}
	for i, fracC := range []int{80, 40} {
		s := base
		s.FracBPct, s.FracCOfRestPct = 0, fracC
		add("fig9", fmt.Sprintf("Figure 9(%c): moving congestion trees, %d%% V / %d%% C", 'a'+i, 100-fracC, fracC),
			fmt.Sprintf("(%c) ", 'a'+i), MovingRows(s, lifetimes))
	}
	for _, p := range []int{30, 60, 90} {
		s := base
		s.FracBPct, s.PPercent = 100, p
		add("fig10", fmt.Sprintf("Figure 10 p=%d: moving congestion trees, 100%% B nodes, p=%d", p, p),
			fmt.Sprintf("p=%d, ", p), MovingRows(s, lifetimes))
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
		rows[i].Point, rows[i].Quantities = "no hotspots", []Quantity{qAll}
		if hot {
			rows[i].Point, rows[i].Quantities = "hotspots", []Quantity{qHot, qNonHot, qTotal}
		}
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
		rows[i].Point, rows[i].Quantities = fmt.Sprintf("p=%d", p), []Quantity{qNonHot, qTMax, qHot, qTotal}
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
		rows[i].Point, rows[i].Quantities = lt.String(), []Quantity{qAll}
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

// RunPairs runs every row at every seed — at the rows' own seeds when
// seeds is empty — as one batch, submitted seed by seed as off₀, on₀,
// off₁, on₁, …, and returns one record per row and seed in that order.
// The runs are independent and fan out across the worker pool.
func RunPairs(rows []PaperRow, seeds []uint64, o Opts) ([]PaperRecord, error) {
	if len(seeds) > 0 {
		all := make([]PaperRow, 0, len(rows)*len(seeds))
		for _, seed := range seeds {
			for _, r := range rows {
				r.Off.Seed, r.On.Seed = seed, seed
				all = append(all, r)
			}
		}
		rows = all
	}
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

// Records folds runs, a PaperRecord per row and seed, into one record
// per row and quantity over the row's seeds, rows in the order they
// first appear: ours in both windows, and the paper's value where it
// states one.
func Records(recs []PaperRecord) []telemetry.Record {
	var out []telemetry.Record
	for i, r := range recs {
		same := func(p PaperRecord) bool {
			return p.Row.Exp == r.Row.Exp && p.Row.Series == r.Row.Series && p.Row.Point == r.Row.Point
		}
		if slices.ContainsFunc(recs[:i], same) {
			continue // folded into the row's first record
		}
		var runs []PaperRecord
		for _, p := range recs[i:] {
			if same(p) {
				runs = append(runs, p)
			}
		}
		for _, q := range r.Row.Quantities {
			rec := telemetry.Record{Exp: r.Row.Exp, Series: r.Row.Series, Point: r.Row.Point, Quantity: q.Name,
				Steady: window(q, runs, false), WholeRun: window(q, runs, true)}
			for _, p := range runs {
				rec.Seeds = append(rec.Seeds, p.Row.Off.Seed)
			}
			rec.Paper = compare(r.Row, q, rec.WholeRun)
			out = append(out, rec)
		}
	}
	return out
}

// window aggregates q over a row's runs in one window.
func window(q Quantity, runs []PaperRecord, whole bool) telemetry.Window {
	var acc [5]stats.Acc
	for _, r := range runs {
		a, b := r.Off.classes(whole), r.On.classes(whole)
		x, y := q.Of(r.Off, a.Payload), q.Of(r.On, b.Payload)
		for j, v := range []float64{x, y, ratio(y, x), q.Of(r.Off, a.Wire), q.Of(r.On, b.Wire)} {
			acc[j].Add(v)
		}
	}
	st := func(a *stats.Acc) telemetry.Stat { return telemetry.Stat{Mean: a.Mean(), CI95: a.CI95()} }
	return telemetry.Window{Off: st(&acc[0]), On: st(&acc[1]), Gain: st(&acc[2]), WireOff: st(&acc[3]), WireOn: st(&acc[4])}
}

// classes is the run's class summary over the warm-up-excluded window,
// or over the whole run; zero for a run that carries none.
func (r *Result) classes(whole bool) metrics.Classes {
	if whole {
		if r.WholeRun == nil {
			return metrics.Classes{}
		}
		return *r.WholeRun
	}
	hot := make(map[ib.LID]bool, len(r.Hotspots))
	for _, h := range r.Hotspots {
		hot[h] = true
	}
	return metrics.Classes{Payload: r.Summary, Wire: metrics.SummarizeWire(r.Rates, hot)}
}

// compare holds the whole-run window w — its wire rates, which is what
// the paper's sinks drained, and its gain — against what the paper
// states for q at the row's point; nil when it states nothing.
func compare(row PaperRow, q Quantity, w telemetry.Window) *telemetry.Paper {
	p, ok := paperValues[[3]string{row.Exp, row.Point, q.Name}]
	if !ok {
		return nil
	}
	p.Tolerance = tolText
	if p.Provenance == telemetry.ProvFigure {
		p.Tolerance = tolFigure
	}
	if reason := notComparable(row.On); reason != "" {
		p.Verdict = "not comparable: " + reason
		return &p
	}
	p.Verdict = "agrees"
	delta := func(ours, paper float64) float64 {
		if paper == 0 {
			return 0
		}
		d := (ours - paper) / paper
		if math.Abs(d) > p.Tolerance {
			p.Verdict = "disagrees"
		}
		return d
	}
	v := p.Value
	p.Delta = telemetry.Legs{Off: delta(w.WireOff.Mean, v.Off), On: delta(w.WireOn.Mean, v.On), Gain: delta(w.Gain.Mean, v.Gain)}
	return &p
}

// PrintPaper writes records as the paper's tables, the one layout of
// every experiment: each run of records that share a Series under that
// heading (none if empty), a line per window of each record and one
// for the paper's value where it states one — under the wire columns it
// is compared with, or the gain — then a blank line. Over several
// seeds every number is a mean ±95 % CI.
func PrintPaper(w io.Writer, recs []telemetry.Record) {
	for i, rec := range recs {
		multi, width := len(rec.Seeds) > 1, 8
		if multi {
			width = 15
		}
		line := func(point, quantity, window string, cells [5]string, tail string) {
			fmt.Fprintf(w, "  %-12s %-13s %-19s", point, quantity, window)
			for _, c := range cells {
				fmt.Fprintf(w, " %*s", width, c)
			}
			fmt.Fprintln(w, tail)
		}
		first := i == 0 || rec.Series != recs[i-1].Series
		if first && rec.Series != "" {
			fmt.Fprintln(w, rec.Series)
		}
		if first {
			line("point", "quantity", "window", [5]string{"CC off", "CC on", "gain", "wire off", "wire on"}, "")
		}
		f := "%.3f"
		if rec.Quantity == qTotal.Name {
			f = "%.1f"
		}
		num := func(st telemetry.Stat, f string) string {
			if multi {
				return fmt.Sprintf(f+" ±"+strings.TrimSuffix(f, "x"), st.Mean, st.CI95)
			}
			return fmt.Sprintf(f, st.Mean)
		}
		point, quantity := rec.Point, rec.Quantity
		if !first && recs[i-1].Point == point {
			point = ""
		}
		for j, win := range []telemetry.Window{rec.Steady, rec.WholeRun} {
			line(point, quantity, []string{"warm-up excluded", "whole run"}[j],
				[5]string{num(win.Off, f), num(win.On, f), num(win.Gain, "%.2fx"), num(win.WireOff, f), num(win.WireOn, f)}, "")
			point, quantity = "", ""
		}
		if p := rec.Paper; p != nil {
			var cells [5]string
			var deltas []string
			legs := [5][2]float64{2: {p.Value.Gain, p.Delta.Gain}, 3: {p.Value.Off, p.Delta.Off}, 4: {p.Value.On, p.Delta.On}}
			for col, leg := range legs {
				if leg[0] != 0 {
					cells[col] = fmt.Sprintf(f, leg[0])
					if col == 2 {
						cells[col] = fmt.Sprintf("%.2fx", leg[0])
					}
					pct := math.Round(1000*leg[1]) / 10
					deltas = append(deltas, fmt.Sprintf("%+.1f%%", pct+0)) // +0: no "-0.0%"
				}
			}
			tail := "  " + p.Verdict
			if !strings.HasPrefix(p.Verdict, "not comparable") {
				tail = "  Δ " + strings.Join(deltas, " / ") + ": " + p.Verdict
			}
			line("", "", fmt.Sprintf("paper (%s ±%.0f%%)", p.Provenance, 100*p.Tolerance), cells, tail)
		}
		if i+1 == len(recs) || recs[i+1].Series != rec.Series {
			fmt.Fprintln(w)
		}
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
	recs, err := RunPairs(WindyRows(base, fracB, ps), nil, o)
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

// PaperPValues are the p values the paper sweeps in figures 5–8.
func PaperPValues() []int {
	return []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
}

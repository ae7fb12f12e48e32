package main

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
)

// dist summarizes the samples of one end-to-end metric. With the 3–7
// samples a run produces, nothing beyond the median and the quartiles
// is claimed; min and max are shown so an outlier is visible. The
// samples themselves are not kept: a result file is small enough to be
// committed as a baseline.
type dist struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// quantile returns the i-th of the three quartile cut points of sorted
// data by the exclusive method (Python's statistics.quantiles default),
// so the spreads printed here are the ones the acceptance check
// computes.
func quantile(sorted []float64, i int) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

func summarize(unit string, samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{
		Unit: unit, N: len(s),
		Median: quantile(s, 2), Q1: quantile(s, 1), Q3: quantile(s, 3),
		Min: s[0], Max: s[len(s)-1],
	}
}

// spread is the interquartile range as a share of the median: the
// run-to-run variance figure every comparison is judged against.
func (d dist) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return math.Abs(d.Q3-d.Q1) / math.Abs(d.Median)
}

// metric is one per-layer reading. Exact marks a simulated count that
// repeats bit-for-bit for a fixed seed (so two commits compare with ==);
// NA marks a metric the workload has no path through — it is emitted as
// 0 because the contract wants every declared name on every run.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Exact bool    `json:"exact,omitempty"`
	NA    bool    `json:"na,omitempty"`
}

// layers collects per-layer metrics by name.
type layers map[string]metric

func (l layers) set(name string, v float64, unit string) {
	l[name] = metric{Value: v, Unit: unit}
}

func (l layers) exact(name string, v float64, unit string) {
	l[name] = metric{Value: v, Unit: unit, Exact: true}
}

// params records the scenario a workload ran (the sweep: its base
// scenario), so a result file says what its numbers were measured on.
type params struct {
	Radix             int     `json:"radix"`
	Nodes             int     `json:"nodes"`
	WarmupMs          float64 `json:"warmup_ms"`
	MeasureMs         float64 `json:"measure_ms"`
	CCOn              bool    `json:"cc_on"`
	FracBPct          int     `json:"frac_b_pct"`
	PPercent          int     `json:"p_percent"`
	FracCOfRestPct    int     `json:"frac_c_of_rest_pct"`
	NumHotspots       int     `json:"num_hotspots"`
	HotspotLifetimeUs float64 `json:"hotspot_lifetime_us"`
	// Runs is how many scenario runs one operation is (the sweep's jobs
	// per pass), Workers how many of them run at once.
	Runs    int `json:"runs"`
	Workers int `json:"workers"`
}

func paramsOf(s *core.Scenario, runs, workers int) params {
	return params{
		Radix: s.Radix, Nodes: s.NumNodes(),
		WarmupMs:  float64(s.Warmup) / float64(sim.Millisecond),
		MeasureMs: float64(s.Measure) / float64(sim.Millisecond),
		CCOn:      s.CCOn, FracBPct: s.FracBPct, PPercent: s.PPercent,
		FracCOfRestPct: s.FracCOfRestPct, NumHotspots: s.NumHotspots,
		HotspotLifetimeUs: float64(s.HotspotLifetime) / float64(sim.Microsecond),
		Runs:              runs, Workers: workers,
	}
}

// workloadResult is what one child process reports: one workload in one
// mode (untraced end-to-end reps, or the traced ladder).
type workloadResult struct {
	Name   string `json:"name"`
	Seed   uint64 `json:"seed"`
	Traced bool   `json:"traced"`
	Params params `json:"params"`
	// Ops counts operations attempted (scenario runs; sweep passes for
	// the sweep workload); Failed those whose correctness checks did
	// not hold, each explained in Failures.
	Ops      int      `json:"ops"`
	Failed   int      `json:"failed"`
	Failures []string `json:"failures,omitempty"`
	// EndToEnd is filled by untraced runs only.
	EndToEnd map[string]dist `json:"end_to_end,omitempty"`
	// Exact holds the simulated outcome of the untraced scenario (full
	// windows): a speed-only change must leave every entry untouched.
	Exact layers `json:"exact,omitempty"`
	// PerLayer is filled by traced runs only.
	PerLayer layers `json:"per_layer,omitempty"`
	// Digest is the obs.Digest sum of the traced digest leg.
	Digest string `json:"digest,omitempty"`
	// TraceFile is where the traced run wrote its spans.
	TraceFile string `json:"trace_file,omitempty"`
}

func (w *workloadResult) fail(format string, args ...any) {
	w.Failed++
	w.Failures = append(w.Failures, fmt.Sprintf(format, args...))
}

// environment records what the numbers were measured on.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

// result is the -out document and the input of -compare.
type result struct {
	Env       environment      `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// print writes every metric of a workload result by name with its unit.
func (w *workloadResult) print(out io.Writer, why string) {
	mode := "untraced"
	if w.Traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "\n== %s (%s, seed %d): %d ops, %d failed\n", w.Name, mode, w.Seed, w.Ops, w.Failed)
	if why != "" {
		fmt.Fprintf(out, "   why: %s\n", why)
	}
	for _, f := range w.Failures {
		fmt.Fprintf(out, "   FAILED: %s\n", f)
	}
	if len(w.EndToEnd) > 0 {
		fmt.Fprintf(out, "   %-20s %-10s %12s %12s %12s %12s %12s %3s %8s\n",
			"end-to-end", "unit", "median", "min", "q1", "q3", "max", "n", "iqr/med")
		for _, name := range sortedKeys(w.EndToEnd) {
			d := w.EndToEnd[name]
			fmt.Fprintf(out, "   %-20s %-10s %12.6g %12.6g %12.6g %12.6g %12.6g %3d %7.2f%%\n",
				name, d.Unit, d.Median, d.Min, d.Q1, d.Q3, d.Max, d.N, 100*d.spread())
		}
	}
	printLayers(out, "exact (full window)", w.Exact)
	printLayers(out, "per-layer", w.PerLayer)
	if w.Digest != "" {
		fmt.Fprintf(out, "   %-30s %s\n", "digest", w.Digest)
	}
	if w.TraceFile != "" {
		fmt.Fprintf(out, "   %-30s %s\n", "spans written to", w.TraceFile)
	}
}

func printLayers(out io.Writer, title string, l layers) {
	if len(l) == 0 {
		return
	}
	fmt.Fprintf(out, "   %-30s %16s %-10s\n", title, "value", "unit")
	for _, name := range sortedKeys(l) {
		m := l[name]
		switch {
		case m.NA:
			fmt.Fprintf(out, "   %-30s %16s %-10s\n", name, "n/a", m.Unit)
		case m.Exact:
			fmt.Fprintf(out, "   %-30s %16.10g %-10s exact\n", name, m.Value, m.Unit)
		default:
			fmt.Fprintf(out, "   %-30s %16.6g %-10s\n", name, m.Value, m.Unit)
		}
	}
}

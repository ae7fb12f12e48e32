package core

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ib"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// quick returns a fast reduced-scale scenario for integration tests.
func quick(radix int) Scenario {
	s := Default(radix)
	s.Warmup = 2 * sim.Millisecond
	s.Measure = 3 * sim.Millisecond
	return s
}

func TestRunRejectsInvalid(t *testing.T) {
	s := Default(12)
	s.Radix = 3
	if _, err := Run(s); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunBasicResult(t *testing.T) {
	s := quick(8)
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Events == 0 {
		t.Fatal("no events executed")
	}
	if r.PopB+r.PopC+r.PopV != s.NumNodes() {
		t.Fatalf("population %d+%d+%d != %d", r.PopB, r.PopC, r.PopV, s.NumNodes())
	}
	if len(r.Hotspots) != 8 {
		t.Fatalf("hotspots = %d", len(r.Hotspots))
	}
	if r.Summary.TotalGbps <= 0 {
		t.Fatal("no throughput")
	}
	if len(r.Rates.RxPayload) != s.NumNodes() {
		t.Fatal("rates not per-node")
	}
	if !r.CCOn || r.CCStats.FECNMarked == 0 {
		t.Fatal("CC did not engage under silent-forest congestion")
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() *Result {
		s := quick(8)
		s.Seed = 42
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Events != b.Events {
		t.Fatalf("event counts diverged: %d vs %d", a.Events, b.Events)
	}
	if a.Summary != b.Summary {
		t.Fatalf("summaries diverged: %v vs %v", a.Summary, b.Summary)
	}
	if a.CCStats != b.CCStats {
		t.Fatal("CC stats diverged")
	}
}

func TestRunSeedMatters(t *testing.T) {
	s := quick(8)
	s.Seed = 1
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Seed = 2
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary == b.Summary {
		t.Fatal("different seeds produced identical summaries")
	}
}

func TestTableIIShape(t *testing.T) {
	s := quick(12)
	// A table sized to 7 contributors per hotspot: Table I's 128 entries
	// overshoot past the hotspots' share inside a 2 + 3 ms window.
	s.CC.CCTILimit = 13
	recs, err := RunPairs(tableIIRows(s), nil, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	quiet, hot := recs[0], recs[1]
	baseline := quiet.Off.Summary.AllAvgGbps
	// Baselines: uniform V-only traffic, unaffected by CC.
	if baseline < 2 || baseline > 4 {
		t.Fatalf("baseline = %.3f", baseline)
	}
	if d := quiet.On.Summary.AllAvgGbps / baseline; d < 0.97 || d > 1.03 {
		t.Fatalf("CC changed the uncongested baseline by %.3f", d)
	}
	off, on := hot.Off.Summary, hot.On.Summary
	// Hotspots saturate near the sink rate with and without CC.
	if off.HotspotAvgGbps < 12 {
		t.Fatalf("hotspot rate without CC = %.3f", off.HotspotAvgGbps)
	}
	if on.HotspotAvgGbps < 0.85*off.HotspotAvgGbps {
		t.Fatalf("CC costs the hotspots too much: %.3f vs %.3f",
			on.HotspotAvgGbps, off.HotspotAvgGbps)
	}
	// Without CC the victims collapse well below baseline; with CC they
	// recover most of it.
	if off.NonHotspotAvgGbps > 0.7*baseline {
		t.Fatalf("no collapse without CC: %.3f vs baseline %.3f",
			off.NonHotspotAvgGbps, baseline)
	}
	if on.NonHotspotAvgGbps < 1.3*off.NonHotspotAvgGbps {
		t.Fatalf("CC recovery too weak: %.3f vs %.3f",
			on.NonHotspotAvgGbps, off.NonHotspotAvgGbps)
	}
	if on.NonHotspotAvgGbps < 0.7*baseline {
		t.Fatalf("CC-on victims far below baseline: %.3f vs %.3f",
			on.NonHotspotAvgGbps, baseline)
	}
	// Total throughput strictly improves.
	if on.TotalGbps <= off.TotalGbps {
		t.Fatalf("total: CC %.1f <= no-CC %.1f", on.TotalGbps, off.TotalGbps)
	}
}

func TestWindyNoHarmAtExtremes(t *testing.T) {
	// 100% B nodes at p=0 is pure uniform traffic: enabling CC must be
	// near-harmless (paper: a negligible penalty, -3% at full scale).
	base := quick(12)
	recs, err := RunPairs(WindyRows(base, 100, []int{0}), nil, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	pt := windyPoints(recs)[0]
	if pt.Improvement < 0.90 || pt.Improvement > 1.10 {
		t.Fatalf("p=0 improvement = %.3f, want ~1", pt.Improvement)
	}
}

func TestWindyP60Improvement(t *testing.T) {
	base := quick(12)
	recs, err := RunPairs(WindyRows(base, 100, []int{60}), nil, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	pt := windyPoints(recs)[0]
	if pt.Improvement < 1.15 {
		t.Fatalf("p=60 improvement = %.3f", pt.Improvement)
	}
	if pt.NonHotOn <= pt.NonHotOff {
		t.Fatalf("CC did not raise non-hotspot rate: %.3f vs %.3f",
			pt.NonHotOn, pt.NonHotOff)
	}
	if pt.NonHotOn > pt.TMax*1.05 {
		t.Fatalf("non-hotspot rate %.3f above tmax %.3f", pt.NonHotOn, pt.TMax)
	}
	if pt.HotOn < 0.8*pt.HotOff {
		t.Fatalf("hotspots starved: %.3f vs %.3f", pt.HotOn, pt.HotOff)
	}
}

func TestSeparateHotspotVLProtectsVictims(t *testing.T) {
	// The set-aside-lane alternative: with CC off, giving hotspot
	// traffic its own VL must recover the victims on its own.
	s := quick(12)
	s.CCOn = false
	plain, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	s.SeparateHotspotVL = true
	sep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if sep.Summary.NonHotspotAvgGbps < 1.5*plain.Summary.NonHotspotAvgGbps {
		t.Fatalf("VL separation did not protect victims: %.3f vs %.3f",
			sep.Summary.NonHotspotAvgGbps, plain.Summary.NonHotspotAvgGbps)
	}
	// The congestion tree itself is untouched: hotspots stay saturated.
	if sep.Summary.HotspotAvgGbps < 12 {
		t.Fatalf("hotspot rate %.3f under VL separation", sep.Summary.HotspotAvgGbps)
	}
}

func TestMovingGainShrinksWithLifetime(t *testing.T) {
	base := quick(12)
	base.Measure = 4 * sim.Millisecond
	long := 2 * sim.Millisecond
	short := 250 * sim.Microsecond
	recs, err := RunPairs(MovingRows(base, []sim.Duration{long, short}), nil, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	gain := func(r PaperRecord) float64 { return r.On.Summary.AllAvgGbps / r.Off.Summary.AllAvgGbps }
	if gain(recs[0]) <= gain(recs[1]) {
		t.Fatalf("gain did not shrink: %v=%.3f %v=%.3f",
			long, gain(recs[0]), short, gain(recs[1]))
	}
	// Receive rates generally rise as hotspots move faster (the traffic
	// spreads itself); check the no-CC series.
	if recs[1].Off.Summary.AllAvgGbps <= recs[0].Off.Summary.AllAvgGbps {
		t.Fatalf("no-CC rate did not rise with faster moves: %.3f vs %.3f",
			recs[0].Off.Summary.AllAvgGbps, recs[1].Off.Summary.AllAvgGbps)
	}
}

// Property: random scenarios conserve traffic (nothing is delivered
// that was not injected) and respect the physical rate caps.
func TestConservationProperty(t *testing.T) {
	trial := func(seed uint64, fracB, p, hotspots int, ccOn, moving bool) {
		t.Helper()
		s := Default(8)
		s.Seed = seed
		s.FracBPct = fracB
		s.PPercent = p
		s.NumHotspots = hotspots
		s.CCOn = ccOn
		if moving {
			s.HotspotLifetime = 300 * sim.Microsecond
		}
		s.Warmup = 200 * sim.Microsecond
		s.Measure = 800 * sim.Microsecond
		res, err := Run(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var tx, rx float64
		for i := range res.Rates.RxPayload {
			rx += res.Rates.RxPayload[i]
			tx += res.Rates.TxPayload[i]
			// Per-node receive cannot exceed the sink rate.
			if res.Rates.RxPayload[i] > 13.6e9*1.01 {
				t.Fatalf("seed %d node %d rx %.3g above sink cap", seed, i, res.Rates.RxPayload[i])
			}
			if res.Rates.TxPayload[i] > 13.5e9*1.01 {
				t.Fatalf("seed %d node %d tx %.3g above injection cap", seed, i, res.Rates.TxPayload[i])
			}
		}
		// Delivered payload over the window cannot exceed injected
		// payload plus what was in flight at the warmup boundary
		// (bounded by the fabric's total buffering, far under 2% here).
		if rx > tx*1.02+1e9 {
			t.Fatalf("seed %d: delivered %.4g of injected %.4g", seed, rx, tx)
		}
	}
	rng := sim.NewRNG(2024)
	for i := 0; i < 12; i++ {
		trial(uint64(i+1),
			rng.Intn(101), rng.Intn(101), 1+rng.Intn(8),
			rng.Intn(2) == 0, rng.Intn(2) == 0)
	}
}

// Every family prints through the one printer: Table II, a windy and
// a moving figure, and an unlabelled series, each with both windows,
// and the paper's value where it states one. Records over two seeds
// print means with confidence intervals.
func TestPrintFormats(t *testing.T) {
	res := func(s metrics.Summary) *Result {
		return &Result{Summary: s, WholeRun: &metrics.Classes{Payload: s, Wire: s},
			Rates: metrics.NodeRates{RxPayload: []float64{0}, RxWire: []float64{0}}}
	}
	rows := Paper(Default(8), []int{60})
	rowsOf := func(exp string) []PaperRow {
		var out []PaperRow
		for _, r := range rows {
			if r.Exp == exp {
				out = append(out, r)
			}
		}
		return out
	}
	print := func(recs ...PaperRecord) string {
		var sb strings.Builder
		PrintPaper(&sb, Records(recs))
		return sb.String()
	}
	check := func(what, out string, wants ...string) {
		t.Helper()
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q:\n%s", what, want, out)
			}
		}
	}
	t2 := rowsOf("table2")
	check("Table II", print(
		PaperRecord{t2[0], res(metrics.Summary{AllAvgGbps: 2.7}), res(metrics.Summary{})},
		PaperRecord{t2[1], res(metrics.Summary{TotalGbps: 216}), res(metrics.Summary{TotalGbps: 1543})}),
		"Table II", "2.700", "216.0", "1543.0", "7.14x", "warm-up excluded", "whole run",
		"paper (text ±5%)", "1543.8", "not comparable: radix 8 builds 32 nodes, not the paper's 648")

	check("windy", print(PaperRecord{rowsOf("fig5")[0],
		res(metrics.Summary{TotalGbps: 10}), res(metrics.Summary{NonHotspotAvgGbps: 3.5, TotalGbps: 87})}),
		"Figure 5", "25% B nodes", "p=60", "tmax", "3.500", "8.70x")

	check("moving", print(PaperRecord{rowsOf("fig9")[7], // 9(a) at 1 ms
		res(metrics.Summary{AllAvgGbps: 0.467}), res(metrics.Summary{AllAvgGbps: 0.723})}),
		"Figure 9(a)", "80% C", "(a) 1ms", "0.467", "0.723", "1.55x", "paper (figure ±25%)", "1.04x")

	// A MovingRows series carries no label: no heading, just the column
	// header, the two windows and the closing blank line.
	out := print(PaperRecord{MovingRows(Default(8), []sim.Duration{300 * sim.Microsecond})[0],
		res(metrics.Summary{AllAvgGbps: 0.5}), res(metrics.Summary{AllAvgGbps: 0.6})})
	if !strings.HasPrefix(out, "  point") || strings.Count(out, "\n") != 4 {
		t.Errorf("unlabelled moving output:\n%q", out)
	}

	two := func(seed uint64, hot float64) PaperRecord {
		r := t2[1]
		r.Off.Seed, r.On.Seed = seed, seed
		return PaperRecord{r, res(metrics.Summary{HotspotAvgGbps: hot}), res(metrics.Summary{HotspotAvgGbps: 1})}
	}
	check("two-seed", print(two(1, 12), two(2, 14)), "13.000 ±12.706", "1.000 ±0.000")
}

// Only the paper's 648-node fabric over ≈ 0.1 s is held against the
// paper's numbers: radix 12, and radix 36 with the short windows, are
// not comparable, each with its reason. A comparable record gets a Δ
// per stated leg, of the whole-run wire rates, and a verdict.
func TestNotComparable(t *testing.T) {
	paper := Default(36)
	paper.Warmup, paper.Measure = 20*sim.Millisecond, 100*sim.Millisecond
	small := paper
	small.Radix = 12
	for _, tc := range []struct {
		s    Scenario
		want string
	}{
		{paper, ""},
		{small, "radix 12 builds 72 nodes, not the paper's 648"},
		{Default(36), "the 12ms run ends inside the ≈ 24 ms CCTI ramp"},
	} {
		if got := notComparable(tc.s); got != tc.want {
			t.Errorf("radix %d over %v: %q, want %q", tc.s.Radix, tc.s.Warmup+tc.s.Measure, got, tc.want)
		}
	}

	res := func(total float64) *Result {
		s := metrics.Summary{TotalGbps: total}
		return &Result{WholeRun: &metrics.Classes{Payload: s, Wire: s},
			Rates: metrics.NodeRates{RxPayload: []float64{0}, RxWire: []float64{0}}}
	}
	recs := Records([]PaperRecord{{Paper(paper, nil)[1], res(216.1 * 1.01), res(1543.8 * 0.9)}})
	total := recs[len(recs)-1]
	if p := total.Paper; total.Quantity != "total" || p == nil || p.Verdict != "disagrees" ||
		math.Abs(p.Delta.Off-0.01) > 1e-9 || math.Abs(p.Delta.On+0.1) > 1e-9 {
		t.Fatalf("total record %+v, paper %+v", total, total.Paper)
	}
	var sb strings.Builder
	PrintPaper(&sb, recs)
	if !strings.Contains(sb.String(), "216.1   1543.8  Δ +1.0% / -10.0%: disagrees") {
		t.Errorf("comparable output:\n%s", sb.String())
	}
}

// The whole-run window comes from the ordinary run's end-of-run
// counters: it equals, to rounding, the rate of a second run whose
// warm-up is 1 µs (nothing is delivered by then) rescaled by the two
// windows' ratio, and the two runs execute the same events.
func TestWholeRunIsTheOneMicrosecondWarmupRun(t *testing.T) {
	for _, ccOn := range []bool{false, true} {
		s := Default(8) // 4 + 8 ms
		s.CCOn = ccOn
		a, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		span := s.Warmup + s.Measure
		s.Warmup, s.Measure = sim.Microsecond, span-sim.Microsecond
		b, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if a.Events != b.Events {
			t.Fatalf("cc=%v: %d events, the 1 µs warm-up run %d", ccOn, a.Events, b.Events)
		}
		scale := float64(s.Measure) / float64(span)
		whole, steady := a.classes(true), b.classes(false)
		for _, pair := range [][2]metrics.Summary{{whole.Payload, steady.Payload}, {whole.Wire, steady.Wire}} {
			got, want := pair[0], pair[1]
			for i, g := range []float64{got.HotspotAvgGbps, got.NonHotspotAvgGbps, got.AllAvgGbps, got.TotalGbps} {
				w := []float64{want.HotspotAvgGbps, want.NonHotspotAvgGbps, want.AllAvgGbps, want.TotalGbps}[i] * scale
				if math.Abs(g-w) > 1e-9*math.Abs(w) {
					t.Errorf("cc=%v: whole run %+v, want the 1 µs warm-up run's %+v × %v", ccOn, got, want, scale)
				}
			}
		}
	}
}

// The wire column counts what the sinks drained: per node, wire bytes
// less payload bytes are the header of every data packet delivered and,
// with CC on, the whole of every CNP; the whole-run class totals differ
// by exactly that.
func TestWireColumnIsPayloadPlusHeadersAndCNPs(t *testing.T) {
	for _, ccOn := range []bool{false, true} {
		s := quick(8)
		s.CCOn = ccOn
		in, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		res := in.Execute()
		var extra, cnps uint64
		for lid := range s.NumNodes() {
			c := in.Net.HCA(ib.LID(lid)).Counters()
			control := c.RxCNP + c.RxAck
			want := ib.HeaderBytes*(c.RxPackets-control) + (ib.CNPBytes+ib.HeaderBytes)*control
			if got := c.RxBytes - c.RxDataPayload; got != want {
				t.Fatalf("cc=%v node %d: wire − payload = %d B, want %d", ccOn, lid, got, want)
			}
			extra, cnps = extra+want, cnps+c.RxCNP
		}
		if (cnps > 0) != ccOn {
			t.Fatalf("cc=%v: %d CNPs delivered", ccOn, cnps)
		}
		w := res.WholeRun
		got := (w.Wire.TotalGbps - w.Payload.TotalGbps) * 1e9 / 8 * (s.Warmup + s.Measure).Seconds()
		if math.Abs(got-float64(extra)) > 1e-6*float64(extra) {
			t.Fatalf("cc=%v: whole-run wire − payload = %.1f B, want %d", ccOn, got, extra)
		}
	}
}

// Every paper value cites the repo line it was copied from, and that
// line still shows it, so the Go table and the prose cannot drift apart
// unnoticed.
func TestPaperValuesCiteTheirSource(t *testing.T) {
	for key, p := range paperValues {
		file, at, ok := strings.Cut(p.Source, ":")
		data, err := os.ReadFile(filepath.Join("..", "..", file))
		if !ok || err != nil {
			t.Fatalf("%v: source %q: %v", key, p.Source, err)
		}
		lines := strings.Split(string(data), "\n")
		var cited string
		for _, n := range strings.Split(at, ",") {
			i, err := strconv.Atoi(n)
			if err != nil || i < 1 || i > len(lines) {
				t.Fatalf("%v: source %q names no line of %s", key, p.Source, file)
			}
			cited += lines[i-1] + "\n"
		}
		for _, v := range []float64{p.Value.Off, p.Value.On, p.Value.Gain} {
			if s := strconv.FormatFloat(v, 'f', -1, 64); v != 0 && !strings.Contains(cited, s) {
				t.Errorf("%v: %s is not on %s:\n%s", key, s, p.Source, cited)
			}
		}
		if p.Provenance != telemetry.ProvText && p.Provenance != telemetry.ProvFigure {
			t.Errorf("%v: provenance %q", key, p.Provenance)
		}
	}
}

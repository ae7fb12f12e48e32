package core

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
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
	recs, err := RunPairs(tableIIRows(s), Opts{})
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
	recs, err := RunPairs(WindyRows(base, 100, []int{0}), Opts{})
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
	recs, err := RunPairs(WindyRows(base, 100, []int{60}), Opts{})
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
	recs, err := RunPairs(MovingRows(base, []sim.Duration{long, short}), Opts{})
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

func TestPrintFormats(t *testing.T) {
	res := func(s metrics.Summary) *Result { return &Result{Summary: s} }
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
	var sb strings.Builder
	t2 := rowsOf("table2")
	PrintPaper(&sb, []PaperRecord{
		{t2[0], res(metrics.Summary{AllAvgGbps: 2.7}), res(metrics.Summary{})},
		{t2[1], res(metrics.Summary{TotalGbps: 216}), res(metrics.Summary{TotalGbps: 1543})},
	})
	out := sb.String()
	for _, want := range []string{"Table II", "2.700", "216.0", "1543.0", "7.14x"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II output missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	PrintPaper(&sb, []PaperRecord{{rowsOf("fig5")[0],
		res(metrics.Summary{TotalGbps: 10}), res(metrics.Summary{NonHotspotAvgGbps: 3.5, TotalGbps: 87})}})
	out = sb.String()
	for _, want := range []string{"Figure 5", "25% B nodes", "60", "8.70x"} {
		if !strings.Contains(out, want) {
			t.Errorf("windy output missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	PrintPaper(&sb, []PaperRecord{{rowsOf("fig9")[7], // 9(a) at 1 ms
		res(metrics.Summary{AllAvgGbps: 0.467}), res(metrics.Summary{AllAvgGbps: 0.723})}})
	out = sb.String()
	for _, want := range []string{"Figure 9(a)", "80% C", "1ms", "0.467", "0.723", "1.55x"} {
		if !strings.Contains(out, want) {
			t.Errorf("moving output missing %q:\n%s", want, out)
		}
	}

	// A MovingRows series carries no label: no heading, just the column
	// header, the row and the closing blank line.
	sb.Reset()
	PrintPaper(&sb, []PaperRecord{{MovingRows(Default(8), []sim.Duration{300 * sim.Microsecond})[0],
		res(metrics.Summary{AllAvgGbps: 0.5}), res(metrics.Summary{AllAvgGbps: 0.6})}})
	if out = sb.String(); !strings.HasPrefix(out, "      lifetime") || strings.Count(out, "\n") != 3 {
		t.Errorf("unlabelled moving output:\n%q", out)
	}

	sb.Reset()
	PrintWindy(&sb, []WindyPoint{{P: 60, Improvement: 2.5}})
	if out = sb.String(); !strings.Contains(out, "improvement") || !strings.Contains(out, "2.50x") {
		t.Errorf("windy sweep output:\n%s", out)
	}
}

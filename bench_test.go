package ibcc

// One benchmark per table and figure of the paper's evaluation section,
// plus ablations over the model's design choices. Each benchmark runs
// the experiment at a reduced radix (the full sweeps at larger scale are
// produced by cmd/paperbench); the quantities the paper plots are
// attached as custom benchmark metrics, so a -bench run regenerates the
// headline numbers of every artifact:
//
//	x-total-gain     total-throughput improvement factor from CC
//	Gbps-*           receive rates of the plotted node classes
//	x-gain-long/short  moving-forest gain at long/short hotspot lifetime
//
// Shapes to expect (section V): CC never loses except at the windy
// extremes p=0/100 where it is neutral; the improvement factor is
// ∩-shaped in p with the peak near p=60; moving-forest gains shrink as
// the hotspot lifetime shrinks.

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// benchScenario is the reduced-scale base: a 72-node radix-12 fat-tree
// with windows past the CC convergence transient.
func benchScenario() Scenario {
	s := DefaultScenario(12)
	s.Warmup = 2 * Millisecond
	s.Measure = 4 * Millisecond
	return s
}

// BenchmarkTableII regenerates Table II (silent forest, 80% C / 20% V).
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := RunTableIIOpts(benchScenario(), RunOpts{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.TotalCC/tab.TotalNoCC, "x-total-gain")
		b.ReportMetric(tab.HotspotsCC.Hot, "Gbps-hot-cc")
		b.ReportMetric(tab.HotspotsCC.NonHot, "Gbps-nonhot-cc")
		b.ReportMetric(tab.HotspotsNoCC.NonHot, "Gbps-nonhot-nocc")
	}
}

// windyFigure runs the reduced sweep of one of figures 5–8 and reports
// the peak-region numbers.
func windyFigure(b *testing.B, fracB int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		pts, err := RunWindySweepOpts(benchScenario(), fracB, []int{0, 60, 100}, RunOpts{})
		if err != nil {
			b.Fatal(err)
		}
		p0, p60, p100 := pts[0], pts[1], pts[2]
		b.ReportMetric(p60.Improvement, "x-gain-p60")
		b.ReportMetric(p0.Improvement, "x-gain-p0")
		b.ReportMetric(p100.Improvement, "x-gain-p100")
		b.ReportMetric(p60.NonHotOn, "Gbps-nonhot-cc-p60")
		b.ReportMetric(p60.NonHotOn/p60.TMax*100, "pct-of-tmax-p60")
		b.ReportMetric(p60.HotOn, "Gbps-hot-cc-p60")
	}
}

// BenchmarkFig5 regenerates figure 5 (windy forest, 25% B nodes).
func BenchmarkFig5(b *testing.B) { windyFigure(b, 25) }

// BenchmarkFig6 regenerates figure 6 (windy forest, 50% B nodes).
func BenchmarkFig6(b *testing.B) { windyFigure(b, 50) }

// BenchmarkFig7 regenerates figure 7 (windy forest, 75% B nodes).
func BenchmarkFig7(b *testing.B) { windyFigure(b, 75) }

// BenchmarkFig8 regenerates figure 8 (windy forest, 100% B nodes).
func BenchmarkFig8(b *testing.B) { windyFigure(b, 100) }

// movingFigure runs a reduced lifetime sweep and reports the gain at the
// longest and shortest lifetimes (the figure's left and right edges).
func movingFigure(b *testing.B, mutate func(*Scenario)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := benchScenario()
		s.Measure = 6 * Millisecond
		mutate(&s)
		pts, err := RunMovingSweepOpts(s, []Duration{
			2 * Millisecond, 500 * Microsecond, 125 * Microsecond,
		}, RunOpts{})
		if err != nil {
			b.Fatal(err)
		}
		long, short := pts[0], pts[len(pts)-1]
		b.ReportMetric(long.AllOn/long.AllOff, "x-gain-long")
		b.ReportMetric(short.AllOn/short.AllOff, "x-gain-short")
		b.ReportMetric(long.AllOn, "Gbps-all-cc-long")
		b.ReportMetric(short.AllOff, "Gbps-all-nocc-short")
	}
}

// BenchmarkFig9a regenerates figure 9(a): moving silent trees with
// 20% V / 80% C nodes.
func BenchmarkFig9a(b *testing.B) {
	movingFigure(b, func(s *Scenario) { s.FracCOfRestPct = 80 })
}

// BenchmarkFig9b regenerates figure 9(b): moving silent trees with
// 60% V / 40% C nodes.
func BenchmarkFig9b(b *testing.B) {
	movingFigure(b, func(s *Scenario) { s.FracCOfRestPct = 40 })
}

// BenchmarkFig10p30 regenerates figure 10(a): moving windy trees,
// 100% B nodes with p=30.
func BenchmarkFig10p30(b *testing.B) {
	movingFigure(b, func(s *Scenario) { s.FracBPct, s.PPercent = 100, 30 })
}

// BenchmarkFig10p60 regenerates figure 10(b): p=60.
func BenchmarkFig10p60(b *testing.B) {
	movingFigure(b, func(s *Scenario) { s.FracBPct, s.PPercent = 100, 60 })
}

// BenchmarkFig10p90 regenerates figure 10(c): p=90.
func BenchmarkFig10p90(b *testing.B) {
	movingFigure(b, func(s *Scenario) { s.FracBPct, s.PPercent = 100, 90 })
}

// BenchmarkAblationDepartureMarking compares the model's arrival-sampled
// congestion state against the literal departure-sampled reading of the
// spec on the Table II scenario: departure sampling keeps marking a
// draining backlog and overshoots the CCTI, starving the hotspots
// (DESIGN.md discusses this design choice).
func BenchmarkAblationDepartureMarking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchScenario()
		// The overshoot mechanism needs the full Table I CCT and deep
		// switch buffers (long backlog drains): the reduced radix's
		// scaled table and the default shallow buffers both bound the
		// damage and would mask the difference.
		s.CC.CCTILimit = 127
		s.Fabric.SwitchIbufBytes = 64 << 10
		s.CC.MarkOnDeparture = true
		dep, err := Run(s)
		if err != nil {
			b.Fatal(err)
		}
		s.CC.MarkOnDeparture = false
		arr, err := Run(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(dep.Summary.HotspotAvgGbps, "Gbps-hot-departure")
		b.ReportMetric(arr.Summary.HotspotAvgGbps, "Gbps-hot-arrival")
		b.ReportMetric(float64(dep.CCStats.MaxCCTI), "maxccti-departure")
		b.ReportMetric(float64(arr.CCStats.MaxCCTI), "maxccti-arrival")
	}
}

// BenchmarkAblationVictimMask disables the Victim Mask on HCA-facing
// switch ports: the sink-limited hotspot ports then count as victims and
// never mark, so endpoint congestion goes undetected and the victims
// stay collapsed.
func BenchmarkAblationVictimMask(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchScenario()
		s.CC.VictimMaskHostPorts = false
		off, err := Run(s)
		if err != nil {
			b.Fatal(err)
		}
		s.CC.VictimMaskHostPorts = true
		on, err := Run(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(off.Summary.NonHotspotAvgGbps, "Gbps-nonhot-nomask")
		b.ReportMetric(on.Summary.NonHotspotAvgGbps, "Gbps-nonhot-mask")
		b.ReportMetric(float64(off.CCStats.FECNMarked), "marks-nomask")
	}
}

// BenchmarkAblationThresholdWeight compares the paper's aggressive
// threshold weight 15 against the most tolerant weight 1, which detects
// congestion only after deep queues have formed.
func BenchmarkAblationThresholdWeight(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchScenario()
		s.CC.Threshold = 1
		w1, err := Run(s)
		if err != nil {
			b.Fatal(err)
		}
		s.CC.Threshold = 15
		w15, err := Run(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(w1.Summary.NonHotspotAvgGbps, "Gbps-nonhot-w1")
		b.ReportMetric(w15.Summary.NonHotspotAvgGbps, "Gbps-nonhot-w15")
	}
}

// BenchmarkAblationBECNOnACK compares the two notification paths the
// spec offers: explicit CNPs per FECN (the study's default) against
// BECNs piggybacked on per-message acknowledgements, which coalesce the
// feedback but add a constant reverse ACK stream.
func BenchmarkAblationBECNOnACK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchScenario()
		s.CC.BECNOnACK = true
		ack, err := Run(s)
		if err != nil {
			b.Fatal(err)
		}
		s.CC.BECNOnACK = false
		cnp, err := Run(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ack.Summary.NonHotspotAvgGbps, "Gbps-nonhot-ack")
		b.ReportMetric(cnp.Summary.NonHotspotAvgGbps, "Gbps-nonhot-cnp")
		b.ReportMetric(ack.Summary.TotalGbps, "Gbps-total-ack")
		b.ReportMetric(cnp.Summary.TotalGbps, "Gbps-total-cnp")
	}
}

// BenchmarkAblationSLLevelCC compares CC at the QP level (the paper's
// choice) against the SL level on a windy forest: at the SL level a
// node's hotspot flow drags its uniform traffic down with it, costing
// the non-hotspots throughput — the degradation §II of the paper
// predicts.
func BenchmarkAblationSLLevelCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchScenario()
		s.FracBPct, s.PPercent = 100, 60
		s.CC.SLLevel = true
		sl, err := Run(s)
		if err != nil {
			b.Fatal(err)
		}
		s.CC.SLLevel = false
		qp, err := Run(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sl.Summary.NonHotspotAvgGbps, "Gbps-nonhot-sl")
		b.ReportMetric(qp.Summary.NonHotspotAvgGbps, "Gbps-nonhot-qp")
		b.ReportMetric(sl.Summary.TotalGbps, "Gbps-total-sl")
		b.ReportMetric(qp.Summary.TotalGbps, "Gbps-total-qp")
	}
}

// BenchmarkAblationVLSeparation compares throttling-based CC against the
// set-aside-lane alternative the paper's introduction discusses: giving
// hotspot traffic its own VL protects the victims without any
// throttling, but leaves the congestion tree itself standing (and costs
// a second lane's buffers). Combining both is also measured.
func BenchmarkAblationVLSeparation(b *testing.B) {
	run := func(ccOn, sep bool) *Result {
		s := benchScenario()
		s.CCOn = ccOn
		s.SeparateHotspotVL = sep
		r, err := Run(s)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	for i := 0; i < b.N; i++ {
		plain := run(false, false)
		sep := run(false, true)
		cc := run(true, false)
		both := run(true, true)
		b.ReportMetric(plain.Summary.NonHotspotAvgGbps, "Gbps-nonhot-none")
		b.ReportMetric(sep.Summary.NonHotspotAvgGbps, "Gbps-nonhot-saq")
		b.ReportMetric(cc.Summary.NonHotspotAvgGbps, "Gbps-nonhot-cc")
		b.ReportMetric(both.Summary.NonHotspotAvgGbps, "Gbps-nonhot-both")
		b.ReportMetric(sep.Summary.HotspotAvgGbps, "Gbps-hot-saq")
	}
}

// BenchmarkAblationRecoveryTimer compares the paper's CCTI timer of 150
// against a 4x slower recovery, which leaves flows throttled long after
// congestion has cleared.
func BenchmarkAblationRecoveryTimer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchScenario()
		s.CC.CCTITimer = 600
		slow, err := Run(s)
		if err != nil {
			b.Fatal(err)
		}
		s.CC.CCTITimer = 150
		paper, err := Run(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(slow.Summary.TotalGbps, "Gbps-total-timer600")
		b.ReportMetric(paper.Summary.TotalGbps, "Gbps-total-timer150")
	}
}

// BenchmarkDegradedFatTree measures the re-routing congestion scenario
// of the paper's introduction: a fat-tree with failed spines carrying
// uniform traffic. There are no victim flows, so the paper's CC
// parameters cost throughput relative to plain backpressure — the
// adverse-effect case documented in EXPERIMENTS.md.
func BenchmarkDegradedFatTree(b *testing.B) {
	run := func(ccOn bool, dead ...int) float64 {
		tp, err := topo.FatTreeDegraded(12, topo.DeadSpines(dead...))
		if err != nil {
			b.Fatal(err)
		}
		lft, err := topo.ComputeLFT(tp)
		if err != nil {
			b.Fatal(err)
		}
		cfg := fabric.DefaultConfig()
		simr := sim.New()
		net, err := fabric.New(simr, tp, lft, cfg, fabric.Hooks{})
		if err != nil {
			b.Fatal(err)
		}
		var throttle traffic.Throttle
		if ccOn {
			params := cc.PaperParams()
			params.CCTILimit = 15
			mgr, err := cc.New(net, params)
			if err != nil {
				b.Fatal(err)
			}
			net.SetHooks(mgr.Hooks())
			throttle = mgr
		}
		rng := sim.NewRNG(1)
		for s := 0; s < tp.NumHosts; s++ {
			gen, err := traffic.NewGenerator(traffic.NodeConfig{
				LID: ib.LID(s), NumNodes: tp.NumHosts, PPercent: 0,
				InjectionRate: cfg.InjectionRate, Throttle: throttle,
				RNG: rng.Derive(uint64(s)),
			})
			if err != nil {
				b.Fatal(err)
			}
			net.HCA(ib.LID(s)).SetSource(gen)
		}
		net.Start()
		window := 3 * sim.Millisecond
		simr.RunUntil(sim.Time(0).Add(window))
		var rx uint64
		for s := 0; s < tp.NumHosts; s++ {
			rx += net.HCA(ib.LID(s)).Counters().RxDataPayload
		}
		return float64(rx) * 8 / window.Seconds() / 1e9
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false), "Gbps-intact-nocc")
		b.ReportMetric(run(false, 0, 1, 2, 3), "Gbps-degraded-nocc")
		b.ReportMetric(run(true, 0, 1, 2, 3), "Gbps-degraded-cc")
	}
}

// BenchmarkEngine measures raw simulation speed on the Table II hotspot
// scenario (events per wall-clock second).
func BenchmarkEngine(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(benchScenario())
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

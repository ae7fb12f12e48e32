package ibcc

// Ablations over the model's design choices, each on a small fabric with
// the quantities it moves attached as custom benchmark metrics
// (Gbps-* are receive rates of the named node class). The paper's tables
// and figures are regenerated by cmd/paperbench, and the simulator's own
// end-to-end cost is measured by benchmark/. This file is the module
// root's only Go file: the package exists for `go test -bench` alone.

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// benchScenario is the ablations' base: a 72-node radix-12 fat-tree over
// a 2 + 4 ms window.
func benchScenario() core.Scenario {
	s := core.Default(12)
	s.Warmup = 2 * sim.Millisecond
	s.Measure = 4 * sim.Millisecond
	return s
}

// BenchmarkAblationDepartureMarking compares the model's arrival-sampled
// congestion state against the literal departure-sampled reading of the
// spec on the Table II scenario: departure sampling keeps marking a
// draining backlog and overshoots the CCTI, starving the hotspots
// (DESIGN.md discusses this design choice).
func BenchmarkAblationDepartureMarking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchScenario()
		// The overshoot mechanism needs deep switch buffers (long backlog
		// drains): the default shallow buffers bound the damage and would
		// mask the difference.
		s.Fabric.SwitchIbufBytes = 64 << 10
		s.CC.MarkOnDeparture = true
		dep, err := core.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		s.CC.MarkOnDeparture = false
		arr, err := core.Run(s)
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
		off, err := core.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		s.CC.VictimMaskHostPorts = true
		on, err := core.Run(s)
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
		w1, err := core.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		s.CC.Threshold = 15
		w15, err := core.Run(s)
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
		ack, err := core.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		s.CC.BECNOnACK = false
		cnp, err := core.Run(s)
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
		sl, err := core.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		s.CC.SLLevel = false
		qp, err := core.Run(s)
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
	run := func(ccOn, sep bool) *core.Result {
		s := benchScenario()
		s.CCOn = ccOn
		s.SeparateHotspotVL = sep
		r, err := core.Run(s)
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
		slow, err := core.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		s.CC.CCTITimer = 150
		paper, err := core.Run(s)
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

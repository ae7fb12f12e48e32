package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// runOpts are the knobs of one run in this process (from its childJob).
type runOpts struct {
	seed  uint64
	reps  int     // 0 selects the workload's default
	secs  float64 // > 0 stops repeating once the budget is spent
	smoke bool    // bench_test.go only: radix 8, 0.2 ms window; no flag sets it
	// traceDir receives trace-<workload>.json from traced runs.
	traceDir string
}

func (o *runOpts) repsFor(w *workload) int {
	if o.reps > 0 {
		return o.reps
	}
	return w.reps
}

// budget decides whether another repetition fits into -seconds: at
// least two always run (the repeat check needs a pair), then one more
// only if the slowest so far would still end inside the budget.
type budget struct {
	start   time.Time
	secs    float64
	slowest time.Duration
	done    int
}

func newBudget(secs float64) *budget { return &budget{start: time.Now(), secs: secs} }

func (b *budget) ran(d time.Duration) {
	b.done++
	if d > b.slowest {
		b.slowest = d
	}
}

func (b *budget) more() bool {
	if b.secs <= 0 || b.done < 2 {
		return true
	}
	return (time.Since(b.start) + b.slowest).Seconds() <= b.secs
}

// setup_s is the median of setupBatches samples, each itself the median
// of at least setupBuilds back-to-back rounds of core.Build, continued
// until setupSpan has been spent building or setupMax rounds are done:
// a single build varies by tens of percent on a small box, and a
// radix-18 build is so short that fifteen of them still do. A sample
// being a median of many, its spread across the batches is that of the
// reported statistic, as it is for the other metrics' repetitions.
const (
	setupBatches = 5
	setupBuilds  = 15
	setupMax     = 60
	setupSpan    = 60 * time.Millisecond
)

// measureSetup times rounds of building every scenario in ss (one for a
// single-run workload, the sweep's 22 for the sweep) after one discarded
// round and returns one sample per batch, in seconds.
func measureSetup(ss []core.Scenario) ([]float64, error) {
	round := func() (total time.Duration, err error) {
		for _, s := range ss {
			// Collect outside the timed call: otherwise a build either
			// hits a collection cycle or not, and the median sits
			// between two modes.
			runtime.GC()
			t0 := time.Now()
			_, err := core.Build(s)
			total += time.Since(t0)
			if err != nil {
				return 0, err
			}
		}
		return total, nil
	}
	if _, err := round(); err != nil {
		return nil, err
	}
	var samples []float64
	for b := 0; b < setupBatches; b++ {
		var rounds []float64
		var spent time.Duration
		for len(rounds) < setupBuilds || (spent < setupSpan && len(rounds) < setupMax) {
			d, err := round()
			if err != nil {
				return nil, err
			}
			rounds = append(rounds, d.Seconds())
			spent += d
		}
		samples = append(samples, summarize("s", rounds).Median)
	}
	return samples, nil
}

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// peakRSSMB is this process's own high-water resident set: the driver
// runs each workload in a child of its own so the figure belongs to
// that workload alone.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// samples collects one reading per timed operation of an untraced run.
// Time and allocations are each kept per operation and per delivered
// packet: on one seed the two say the same, but across seeds the
// placement moves the packets an operation delivers by a third, and
// then time holds steady per packet while the allocation count (about
// the same for every placement) holds steady per operation.
type samples struct {
	wall, nsPkt, allocsOp, allocsPkt []float64
}

func (s *samples) add(d time.Duration, allocs, packets uint64) {
	s.wall = append(s.wall, d.Seconds())
	s.nsPkt = append(s.nsPkt, float64(d.Nanoseconds())/float64(packets))
	s.allocsOp = append(s.allocsOp, float64(allocs))
	s.allocsPkt = append(s.allocsPkt, float64(allocs)/float64(packets))
}

// endToEnd summarizes the samples with the process's peak RSS and the
// set-up samples; a run without one good operation measured nothing.
func (s *samples) endToEnd(setup []float64) map[string]dist {
	if len(s.wall) == 0 {
		return nil
	}
	return map[string]dist{
		"wall_s":            summarize("s", s.wall),
		"ns_per_packet":     summarize("ns/packet", s.nsPkt),
		"allocs_per_op":     summarize("1/op", s.allocsOp),
		"allocs_per_packet": summarize("1/packet", s.allocsPkt),
		"peak_rss_mb":       summarize("MB", []float64{peakRSSMB()}),
		"setup_s":           summarize("s", setup),
	}
}

// outcome is the simulated result of one scenario run: everything that
// must repeat exactly for a fixed (workload, seed).
type outcome struct {
	events, packets uint64
	summary         metrics.Summary
	latency         metrics.LatencySummary
}

func outcomeOf(in *core.Instance, res *core.Result) outcome {
	return outcome{events: res.Events, packets: in.DeliveredPackets(), summary: res.Summary, latency: res.Latency}
}

// sanity checks one run's physical plausibility; it returns "" when the
// run is sane.
func sanity(s *core.Scenario, res *core.Result) string {
	switch sink := s.Fabric.SinkRate.Gbps(); {
	case res.Summary.HotspotAvgGbps > sink:
		return fmt.Sprintf("hotspots receive %.3f Gbps, above the %.3f Gbps sink rate", res.Summary.HotspotAvgGbps, sink)
	case s.CCOn && res.CCStats.FECNMarked == 0:
		return "congestion control is on but no packet was FECN-marked"
	case !s.CCOn && res.CCStats.FECNMarked != 0:
		return fmt.Sprintf("congestion control is off but %d packets were FECN-marked", res.CCStats.FECNMarked)
	}
	return ""
}

// simulated turns a run's outcome into the exact (seed-determined)
// metrics shared by the untraced Exact block and the traced per-layer
// list.
func simulated(l layers, o outcome, res *core.Result) {
	l.exact("sim.events", float64(o.events), "count")
	l.exact("sim.events_per_packet", float64(o.events)/float64(o.packets), "1/packet")
	l.exact("fabric.packets_delivered", float64(o.packets), "count")
	l.exact("metrics.total_gbps", o.summary.TotalGbps, "Gbps")
	l.exact("metrics.hot_gbps", o.summary.HotspotAvgGbps, "Gbps")
	l.exact("metrics.nonhot_gbps", o.summary.NonHotspotAvgGbps, "Gbps")
	l.exact("metrics.lat_p50_us", o.latency.P50.Seconds()*1e6, "us")
	l.exact("metrics.lat_p99_us", o.latency.P99.Seconds()*1e6, "us")
	l.exact("cc.fecn_marked", float64(res.CCStats.FECNMarked), "count")
	l.exact("cc.cnp_sent", float64(res.CCStats.CNPSent), "count")
	l.exact("cc.becn_received", float64(res.CCStats.BECNReceived), "count")
	l.exact("cc.timer_decrements", float64(res.CCStats.TimerDecrements), "count")
	l.exact("cc.max_ccti", float64(res.CCStats.MaxCCTI), "count")
}

// runSingle is the untraced run of a single-scenario workload: warm-up,
// set-up timing, then closed-loop repetitions of Build (untimed) and
// Execute (timed), one simulation at a time.
func runSingle(w *workload, o runOpts) (*workloadResult, error) {
	s := w.scenario(o.seed, o.smoke)
	out := &workloadResult{Name: w.name, Seed: o.seed, Params: paramsOf(&s, 1, 1), Exact: layers{}}

	if _, err := core.Run(warmupScenario(s)); err != nil {
		return nil, err
	}
	setup, err := measureSetup([]core.Scenario{s})
	if err != nil {
		return nil, err
	}

	var ops samples
	var first outcome
	b := newBudget(o.secs)
	for rep := 0; rep < o.repsFor(w) && b.more(); rep++ {
		in, err := core.Build(s)
		if err != nil {
			return nil, err
		}
		runtime.GC() // every repetition starts from the same heap state
		m0 := mallocs()
		t0 := time.Now()
		res := in.Execute()
		d := time.Since(t0)
		m1 := mallocs()
		b.ran(d)

		got := outcomeOf(in, res)
		out.Ops++
		switch why := sanity(&s, res); {
		case got.packets == 0:
			out.fail("rep %d delivered no packets", rep)
			continue
		case why != "":
			out.fail("rep %d: %s", rep, why)
		case rep == 0:
			first = got
			simulated(out.Exact, got, res)
			// The error against the paper is stated on the full window
			// only, the one the model was validated on (the traced
			// ladder runs half of it and reports none).
			if w.paperTotal > 0 {
				errPct := func(ours, paper float64) float64 { return 100 * (ours - paper) / paper }
				out.Exact.exact("metrics.paper_total_err_pct", errPct(got.summary.TotalGbps, w.paperTotal), "%")
				out.Exact.exact("metrics.paper_nonhot_err_pct", errPct(got.summary.NonHotspotAvgGbps, w.paperNonHot), "%")
			}
		case got != first:
			out.fail("rep %d is not a repeat of rep 0: %+v vs %+v", rep, got, first)
		}
		ops.add(d, m1-m0, got.packets)
	}
	out.EndToEnd = ops.endToEnd(setup)
	return out, nil
}

package core

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// sampledRun executes s with a digest and a sampler at the given cadence
// attached and returns the trajectory signature, the result and the
// finished sampler's series.
func sampledRun(t *testing.T, s Scenario, cadence sim.Duration) (KernelSignature, *Result, telemetry.SamplerSnapshot) {
	t.Helper()
	in, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	dig := in.AttachDigest()
	smp := telemetry.NewSampler(s.Name, cadence)
	in.Observe(ObserveOpts{Telemetry: smp})
	res := in.Execute()
	smp.Finish()
	return ckptSig(dig, res), res, smp.Snapshot()
}

// TestTelemetryTraceDoesNotPerturbRun: a run with the CSV-cadence
// sampler attached executes the same events, in the same order, to the
// same aggregates as the bare run — the sampler schedules nothing.
func TestTelemetryTraceDoesNotPerturbRun(t *testing.T) {
	s := quick(8)
	s.FracBPct, s.PPercent = 100, 60
	got, _, _ := sampledRun(t, s, 100*sim.Microsecond)
	requireIdentical(t, "sampled run", straightSig(t, s), got)
}

// TestTelemetryTraceSurvivesCheckpoints: the sampler composes with
// cadence checkpointing (it leaves nothing in the event list for the
// snapshot to choke on), and restoring the newest checkpoint continues
// to the uninterrupted run's signature.
func TestTelemetryTraceSurvivesCheckpoints(t *testing.T) {
	s := faultBase(3)
	s.Name = "ckpt under telemetry"
	straight := straightSig(t, s)

	dir := t.TempDir()
	in, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	dig := in.AttachDigest()
	smp := telemetry.NewSampler(s.Name, 50*sim.Microsecond)
	in.Observe(ObserveOpts{Telemetry: smp})
	res, err := in.ExecuteWithCheckpoints(CkptOpts{Every: 250 * sim.Microsecond, Dir: dir, Keep: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "checkpointed run", straight, ckptSig(dig, res))
	smp.Finish()
	if n := len(smp.Snapshot().QueuedKB.V); n != 12 {
		t.Errorf("600 µs at 50 µs cadence gave %d bins, want 12", n)
	}

	re, err := RestoreFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "resume from disk", straight, ckptSig(re.dig, re.Execute()))
}

// TestTelemetryTraceSeries re-expresses the standard-trace checks on the
// sampler: the series sit on the fixed grid, the delivered-rate series
// integrate back to the run's measured throughput, congestion shows in
// the queue and CCTI series, and the CSV carries every column.
func TestTelemetryTraceSeries(t *testing.T) {
	s := quick(8)
	cadence := 100 * sim.Microsecond
	_, res, snap := sampledRun(t, s, cadence)

	bins := int((s.Warmup + s.Measure) / cadence)
	for name, sr := range map[string]telemetry.Series{
		"hotspot": snap.HotspotGbps, "other": snap.OtherGbps, "control": snap.ControlGbps,
		"queued": snap.QueuedKB, "max_port": snap.MaxPortKB, "throttled": snap.Throttled,
		"max_ccti": snap.MaxCCTI, "mean_ccti": snap.MeanCCTI, "incr": snap.CCTIIncr, "decr": snap.CCTIDecr,
		"drops": snap.Drops, "stalls": snap.Stalls,
	} {
		if len(sr.V) != bins || len(sr.TUS) != bins {
			t.Fatalf("series %s has %d points, want %d", name, len(sr.V), bins)
		}
		if first, last := sr.TUS[0], sr.TUS[bins-1]; first != 100 || last != 5000 {
			t.Fatalf("series %s spans [%v, %v] µs, want [100, 5000]", name, first, last)
		}
	}

	// Data payload delivered in the measurement window, from the series:
	// Gbit/s × bin seconds over the bins after warmup. The collector
	// counts the same deliveries, so the two agree to rounding.
	var gbit float64
	for i, tUS := range snap.HotspotGbps.TUS {
		if tUS > s.Warmup.Seconds()*1e6 {
			gbit += (snap.HotspotGbps.V[i] + snap.OtherGbps.V[i]) * cadence.Seconds()
		}
	}
	if want := res.Summary.TotalGbps * s.Measure.Seconds(); gbit < want*0.999 || gbit > want*1.001 {
		t.Fatalf("rate series integrate to %.6f Gbit, summary says %.6f", gbit, want)
	}
	// Payload flagged as hotspot traffic lands on hotspots, so the
	// hotspot series cannot exceed what the hotspots received.
	hot := res.Summary.HotspotAvgGbps * float64(len(res.Hotspots))
	if peak := seriesMax(snap.HotspotGbps); peak <= 0 || peak > hot*1.5 {
		t.Fatalf("hotspot series peaks at %.3f Gbps, hotspots received %.3f", peak, hot)
	}

	if seriesMax(snap.MaxPortKB) <= 0 {
		t.Fatal("no queue growth observed under congestion")
	}
	if seriesMax(snap.MeanCCTI) <= 0 || seriesMax(snap.Throttled) <= 0 {
		t.Fatal("no throttling observed")
	}
	if seriesMax(snap.MaxCCTI) != float64(res.CCStats.MaxCCTI) {
		t.Fatalf("max CCTI series peaks at %v, run reports %d", seriesMax(snap.MaxCCTI), res.CCStats.MaxCCTI)
	}
	if got, want := snap.CCTIIncr.Sum(), float64(res.CCStats.BECNReceived); got == 0 || got > want {
		t.Fatalf("%v CCTI increases from %v BECNs", got, want)
	}
	if got, want := snap.CCTIDecr.Sum(), float64(res.CCStats.TimerDecrements); got != want {
		t.Fatalf("%v CCTI decreases, run reports %v timer decrements", got, want)
	}

	var sb strings.Builder
	if err := snap.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != bins+1 {
		t.Fatalf("CSV has %d lines, want header + %d rows", len(lines), bins)
	}
	if lines[0] != "time_s,hotspot_gbps,other_gbps,control_gbps,queued_kb,max_port_kb,throttled,max_ccti,mean_ccti,ccti_incr,ccti_decr,drops,stalls" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0.0001,") || !strings.HasPrefix(lines[bins], "0.005,") {
		t.Fatalf("CSV time column runs %q .. %q", lines[1], lines[bins])
	}

	// The same grid on a run of 200 + 600 µs: exactly eight rows.
	s.Warmup, s.Measure = 200*sim.Microsecond, 600*sim.Microsecond
	_, _, snap = sampledRun(t, s, cadence)
	sb.Reset()
	if err := snap.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(sb.String(), "\n") - 1; rows != 8 {
		t.Fatalf("800 µs at 100 µs cadence wrote %d CSV rows, want 8", rows)
	}
}

// TestTelemetryTraceWithoutCC: the congestion-control series stay at
// zero when CC is off, and the rate series do not.
func TestTelemetryTraceWithoutCC(t *testing.T) {
	s := quick(8)
	s.CCOn = false
	_, _, snap := sampledRun(t, s, 200*sim.Microsecond)
	for name, sr := range map[string]telemetry.Series{
		"throttled": snap.Throttled, "max_ccti": snap.MaxCCTI, "mean_ccti": snap.MeanCCTI,
		"incr": snap.CCTIIncr, "decr": snap.CCTIDecr,
	} {
		if seriesMax(sr) != 0 {
			t.Fatalf("CC series %s non-zero with CC off: %v", name, sr.V)
		}
	}
	if seriesMax(snap.OtherGbps) <= 0 {
		t.Fatal("no delivered rate recorded")
	}
}

// TestTelemetryFixedGridAcrossOutage: with every host uplink down the
// fabric drains and publishes nothing for many bins; the series must
// still carry one point per bin — idle ones at zero rate — so the time
// column stays on the grid.
func TestTelemetryFixedGridAcrossOutage(t *testing.T) {
	s := tiny()
	s.CCOn = false
	plan := &fault.Plan{Horizon: sim.Time(0).Add(s.Warmup + s.Measure)}
	for lid := 0; lid < s.NumNodes(); lid++ {
		plan.Flaps = append(plan.Flaps, fault.Flap{
			Link: fault.LinkRef{Node: lid},
			At:   sim.Time(0).Add(100 * sim.Microsecond), Dur: 180 * sim.Microsecond,
		})
	}
	s.Faults = plan
	cadence := 10 * sim.Microsecond
	_, _, snap := sampledRun(t, s, cadence)

	bins := int((s.Warmup + s.Measure) / cadence)
	if len(snap.OtherGbps.V) != bins {
		t.Fatalf("%d points, want %d: idle bins were skipped", len(snap.OtherGbps.V), bins)
	}
	idle := 0
	for i, tUS := range snap.OtherGbps.TUS {
		if want := float64(i+1) * 10; tUS != want {
			t.Fatalf("point %d stamped %v µs, want %v", i, tUS, want)
		}
		// The queues behind the hotspots take ~80 µs to drain.
		if tUS > 200 && tUS <= 280 {
			if snap.HotspotGbps.V[i] != 0 || snap.OtherGbps.V[i] != 0 || snap.Drops.V[i] != 0 || snap.Stalls.V[i] != 0 {
				t.Fatalf("bin ending %v µs is inside the outage but not idle", tUS)
			}
			idle++
		}
	}
	if idle != 8 {
		t.Fatalf("%d idle bins inside the outage, want 8", idle)
	}
	if last := snap.OtherGbps.V[bins-1]; last <= 0 {
		t.Fatalf("traffic did not resume after the outage (last bin %v Gbps)", last)
	}
}

func seriesMax(s telemetry.Series) float64 {
	var max float64
	for _, v := range s.V {
		if v > max {
			max = v
		}
	}
	return max
}

// TestTelemetryDoesNotPerturbSweep asserts the acceptance criterion at
// the sweep level: a sweep with a telemetry hub and span tracker
// attached produces bit-identical results to a bare one — the sampler
// is a pure bus consumer, so the trajectory cannot move.
func TestTelemetryDoesNotPerturbSweep(t *testing.T) {
	s := quick(8)
	seeds := []uint64{1, 2}
	base, err := RunSeedsOpts(s, seeds, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub(0)
	tr := telemetry.NewTracker()
	got, err := RunSeedsOpts(s, seeds, Opts{Workers: 2, Telemetry: hub, Spans: tr})
	if err != nil {
		t.Fatal(err)
	}
	if base.Events.Mean() != got.Events.Mean() || base.Events.Max() != got.Events.Max() {
		t.Fatalf("event counts changed under telemetry: %v != %v", base.Events.Mean(), got.Events.Mean())
	}
	if base.Total.Mean() != got.Total.Mean() || base.Hotspot.Mean() != got.Hotspot.Mean() {
		t.Fatalf("throughput changed under telemetry: %v != %v", base.Total.Mean(), got.Total.Mean())
	}

	snap := hub.Snapshot()
	if snap.Runs != len(seeds) {
		t.Fatalf("hub folded %d runs, want %d", snap.Runs, len(seeds))
	}
	if snap.Completion.Count == 0 {
		t.Fatal("no message completions aggregated")
	}
	if len(snap.HotPorts) == 0 {
		t.Fatal("no hot ports ranked")
	}

	st := tr.Stats()
	if st.Done != len(seeds) || st.Failed != 0 {
		t.Fatalf("span stats: %+v", st)
	}
	if st.Events == 0 {
		t.Fatal("spans recorded no events")
	}
}

// TestTelemetryWithCheckedBatch runs a two-run batch through the sweep
// funnel with a hub, a tracker and the invariant checker: the sampler
// shares the bus with the checker.
func TestTelemetryWithCheckedBatch(t *testing.T) {
	s := quick(8)
	hub := telemetry.NewHub(0)
	tr := telemetry.NewTracker()
	tr.AddTotal(2)
	s2 := s
	s2.Seed = 7
	res, err := runBatch(Opts{Check: true, Telemetry: hub, Spans: tr}, []Scenario{s, s2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0] == nil || res[1] == nil {
		t.Fatalf("batch results: %+v", res)
	}
	snap := hub.Snapshot()
	if snap.Runs != 2 {
		t.Fatalf("hub runs = %d", snap.Runs)
	}
	if st := tr.Stats(); st.Done != 2 || st.Total != 2 {
		t.Fatalf("span stats: %+v", st)
	}
}

// TestObserveTelemetryOption covers the single-run attachment path the
// inspection CLI uses.
func TestObserveTelemetryOption(t *testing.T) {
	in, err := Build(tiny())
	if err != nil {
		t.Fatal(err)
	}
	smp := telemetry.NewSampler(in.Scenario.Name, 0)
	in.Observe(ObserveOpts{Telemetry: smp})
	in.Execute()
	smp.Finish()
	snap := smp.Snapshot()
	if snap.Completion.Count == 0 {
		t.Fatal("sampler saw no message completions")
	}
	if len(snap.QueuedKB.V) == 0 {
		t.Fatal("sampler produced no queue series")
	}
}

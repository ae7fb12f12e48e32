// Command ibccsim runs a single congestion-control scenario on an
// InfiniBand fat-tree and prints the measured rates, e.g.:
//
//	ibccsim -radix 18 -fracb 100 -p 60 -cc=true
//	ibccsim -radix 12 -lifetime 1ms              # moving hotspots
//	ibccsim -radix 36 -warmup 10ms -measure 50ms # paper scale (slow)
//	ibccsim -seeds 8 -jobs 4                     # 8 seeds over 4 workers
//	ibccsim -out results/                        # save a JSON artifact
//	ibccsim -radix 12 -ctree                     # print the congestion trees
//	ibccsim -chrome-trace run.trace              # flight recording for Perfetto
//	ibccsim -trace run.csv -traceint 50us        # time series of the telemetry sampler
//	ibccsim -faults plan.json -check             # inject a fault plan, audited
//	ibccsim -ckpt-every 1ms -ckpt-dir ckpts/ -check   # rolling crash-safe checkpoints, audited
//	ibccsim -resume-from ckpts/ -check                # continue from the newest one, audited
//
// With -seeds N > 1 the scenario runs once per seed (seed, seed+1, ...)
// fanned out over -jobs workers, and the mean rates with 95% confidence
// intervals are reported; the aggregates are bit-identical for any
// worker count. With -out every run's result is persisted as a
// fingerprint-keyed JSON artifact, and multi-seed runs resume from
// matching artifacts.
//
// With -ckpt-every a single run writes a rolling series of crash-safe
// checkpoints (atomic rename + fsync + CRC), and -resume-from continues
// a run from a checkpoint file (or the newest one in a directory) with a
// trajectory byte-identical to never having stopped. Scenario flags are
// ignored on resume — the checkpoint carries the scenario. -check
// composes with both: the checker attaches at any event boundary, so a
// checkpointing run and a resumed one (whether or not the run that wrote
// the checkpoint was checked) are audited like any other. The flags that
// record a run's event stream (-trace, -events, -chrome-trace, -ctree,
// -telemetry) stay refused on -resume-from: they would show the resumed
// part only while reading as the whole run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	ibcc "repro"
	"repro/internal/cliflag"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ibccsim: ")

	var (
		radix    = flag.Int("radix", 18, "fat-tree crossbar radix (36 = paper's 648 nodes)")
		seed     = flag.Uint64("seed", 1, "random seed")
		ccOn     = flag.Bool("cc", true, "enable congestion control")
		fracB    = flag.Int("fracb", 0, "percent of nodes that are B nodes")
		p        = flag.Int("p", 0, "hotspot share p of B nodes (percent)")
		fracC    = flag.Int("fracc", 80, "percent of non-B nodes that are C contributors")
		hotspots = flag.Int("hotspots", 8, "number of hotspots")
		lifetime = flag.Duration("lifetime", 0, "hotspot lifetime (0 = static hotspots)")
		warmup   = flag.Duration("warmup", 4*time.Millisecond, "warmup before measurement")
		measure  = flag.Duration("measure", 8*time.Millisecond, "measurement window")
		quiet    = flag.Bool("q", false, "print only the summary line")
		traceCSV = flag.String("trace", "", "write the telemetry sampler's time series (per-class rates, queues, CCTI, drops, stalls) as CSV to this file")
		traceInt = flag.Duration("traceint", 100*time.Microsecond, "sampling interval of the -trace CSV (and of -telemetry when both are given)")
		numSeeds = flag.Int("seeds", 1, "run this many seeds (seed, seed+1, ...) and report mean ±95% CI")
		jobs     = flag.Int("jobs", 1, "simulation workers for -seeds > 1 (0 = one per CPU)")
		out      = flag.String("out", "", "artifact directory: persist results as JSON (and resume -seeds runs)")
		events   = flag.String("events", "", "write a JSONL event log of the run to this file")
		chrome   = flag.String("chrome-trace", "", "write a Chrome trace_event file (open in Perfetto) to this file")
		ctree    = flag.Bool("ctree", false, "reconstruct the congestion trees from the event bus and print them")
		checkInv = flag.Bool("check", false, "run under the runtime invariant checker; exit non-zero on violations")
		faults   = flag.String("faults", "", "JSON fault plan: inject link faults and wire loss from this file")
		telem    = flag.Bool("telemetry", false, "print the telemetry sampler's per-class rates, message-completion percentiles and hottest ports")
		ckEvery  = flag.Duration("ckpt-every", 0, "write a crash-safe checkpoint every this much simulated time (0 = off)")
		ckDir    = flag.String("ckpt-dir", "checkpoints", "directory for the -ckpt-every rolling series")
		ckKeep   = flag.Int("ckpt-keep", 3, "checkpoints to keep in the -ckpt-every rolling series")
		resume   = flag.String("resume-from", "", "continue from a checkpoint file, or the newest checkpoint in a directory; scenario flags are ignored")
	)
	flag.Parse()

	// Reject nonsensical numeric flags with one line and a non-zero
	// exit: a zero worker pool hangs, zero seeds shrink a sweep, and a
	// trace finer than the sampler's ring loses its oldest rows.
	var traceSpan time.Duration
	if *traceCSV != "" {
		traceSpan = *warmup + *measure
	}
	for _, err := range []error{
		cliflag.Workers("-jobs", *jobs),
		cliflag.Positive("-seeds", *numSeeds),
		cliflag.Positive("-radix", *radix),
		cliflag.Cadence("-traceint", *traceInt, traceSpan, ibcc.TelemetryRingCap),
	} {
		if err != nil {
			log.Fatal(err)
		}
	}
	if *ckEvery > 0 {
		if *numSeeds > 1 {
			log.Fatal("-ckpt-every checkpoints a single run; use -seeds 1")
		}
		if err := cliflag.Positive("-ckpt-keep", *ckKeep); err != nil {
			log.Fatal(err)
		}
	}
	if *resume != "" {
		if *numSeeds > 1 {
			log.Fatal("-resume-from continues a single run; use -seeds 1")
		}
		if *faults != "" {
			log.Fatal("-resume-from: the checkpoint already carries the fault plan; drop -faults")
		}
		if *traceCSV != "" || *events != "" || *chrome != "" || *ctree || *telem {
			log.Fatal("-resume-from: a recording of the resumed part alone would read as the whole run; drop -trace/-events/-chrome-trace/-ctree/-telemetry")
		}
	}

	s := ibcc.DefaultScenario(*radix)
	s.Seed = *seed
	s.CCOn = *ccOn
	s.FracBPct = *fracB
	s.PPercent = *p
	s.FracCOfRestPct = *fracC
	s.NumHotspots = *hotspots
	s.HotspotLifetime = ibcc.Duration(lifetime.Nanoseconds()) * ibcc.Nanosecond
	s.Warmup = ibcc.Duration(warmup.Nanoseconds()) * ibcc.Nanosecond
	s.Measure = ibcc.Duration(measure.Nanoseconds()) * ibcc.Nanosecond

	if *faults != "" {
		f, err := os.Open(*faults)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := ibcc.DecodeFaultPlan(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		s.Faults = plan
	}

	var store *ibcc.ArtifactStore
	if *out != "" {
		var err error
		if store, err = ibcc.NewArtifactStore(*out); err != nil {
			log.Fatal(err)
		}
	}

	if *numSeeds > 1 {
		if *traceCSV != "" || *events != "" || *chrome != "" || *ctree || *telem {
			log.Fatal("-trace/-events/-chrome-trace/-ctree/-telemetry record a single run; use -seeds 1")
		}
		runSeeds(s, *numSeeds, *jobs, store, *quiet, *checkInv)
		return
	}

	start := time.Now()
	var inst *ibcc.Instance
	var err error
	if *resume != "" {
		if inst, err = ibcc.RestoreFile(*resume); err != nil {
			log.Fatal(err)
		}
		s = inst.Scenario
		if !*quiet {
			from, _ := ibcc.LatestCheckpoint(*resume)
			fmt.Printf("resume   : %s (%s)\n", from, s.Name)
		}
	} else if inst, err = ibcc.Build(s); err != nil {
		log.Fatal(err)
	}
	// -trace and -telemetry are two views of one sampler; the CSV's
	// cadence wins when both are given.
	var smp *ibcc.TelemetrySampler
	if *traceCSV != "" {
		smp = ibcc.NewTelemetrySampler(s.Name, ibcc.Duration(traceInt.Nanoseconds())*ibcc.Nanosecond)
	} else if *telem {
		smp = ibcc.NewTelemetrySampler(s.Name, 0)
	}
	var ob *ibcc.Observation
	var obFiles []*os.File
	if *events != "" || *chrome != "" || *ctree || smp != nil {
		o := ibcc.ObserveOpts{Tree: *ctree, Telemetry: smp}
		if *events != "" {
			f, err := os.Create(*events)
			if err != nil {
				log.Fatal(err)
			}
			o.Events = f
			obFiles = append(obFiles, f)
		}
		if *chrome != "" {
			f, err := os.Create(*chrome)
			if err != nil {
				log.Fatal(err)
			}
			o.ChromeTrace = f
			obFiles = append(obFiles, f)
		}
		ob = inst.Observe(o)
	}
	var ck interface{ Report() *ibcc.InvariantReport }
	if *checkInv {
		ck = inst.Check(ibcc.CheckOpts{Diagnostics: os.Stderr})
	}
	// A resumed run's event count covers the whole run; the rate below
	// is of the events this process executed.
	resumedAt := inst.Net.Sim().Processed()
	res, err := inst.ExecuteWithCheckpoints(ibcc.CkptOpts{
		Every: ibcc.Duration(ckEvery.Nanoseconds()) * ibcc.Nanosecond, // 0 writes none
		Dir:   *ckDir,
		Keep:  *ckKeep,
		OnSave: func(path string, at ibcc.Time) {
			if !*quiet {
				fmt.Printf("ckpt     : %s (t=%v)\n", path, at)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	smp.Finish()

	if ob != nil {
		if err := ob.Close(); err != nil {
			log.Fatal(err)
		}
		for _, f := range obFiles {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
		if !*quiet {
			nj, nc := ob.EventsWritten()
			if *events != "" {
				fmt.Printf("events   : %d -> %s\n", nj, *events)
			}
			if *chrome != "" {
				fmt.Printf("trace    : %d events -> %s (open in ui.perfetto.dev)\n", nc, *chrome)
			}
		}
	}

	if store != nil {
		if err := store.Save(s, res, elapsed); err != nil {
			log.Print(err)
		} else if !*quiet {
			fmt.Printf("artifact : %s/%s.json\n", store.Dir(), ibcc.ScenarioFingerprint(s)[:16])
		}
	}

	if *traceCSV != "" {
		snap := smp.Snapshot()
		f, err := os.Create(*traceCSV)
		if err != nil {
			log.Fatal(err)
		}
		if err := snap.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		if !*quiet {
			fmt.Printf("trace    : %d samples every %v -> %s\n", len(snap.QueuedKB.V), *traceInt, *traceCSV)
		}
	}

	if *quiet {
		fmt.Println(res.Summary)
		reportCheck(ck, true)
		if *ctree {
			ob.TreeReport().WriteTo(os.Stdout)
		}
		return
	}
	fmt.Printf("scenario : %s (%d nodes, %d switches)\n", res.Name, s.NumNodes(), len(inst.Net.Switches()))
	fmt.Printf("mix      : B=%d C=%d V=%d, %d hotspots, p=%d%%", res.PopB, res.PopC, res.PopV, len(res.Hotspots), s.PPercent)
	if s.HotspotLifetime > 0 {
		fmt.Printf(", moving every %v", s.HotspotLifetime)
	}
	fmt.Println()
	fmt.Printf("cc       : on=%v", res.CCOn)
	if res.CCOn {
		fmt.Printf("  fecn=%d cnp=%d becn=%d maxCCTI=%d",
			res.CCStats.FECNMarked, res.CCStats.CNPSent,
			res.CCStats.BECNReceived, res.CCStats.MaxCCTI)
	}
	fmt.Println()
	fmt.Printf("rates    : hotspots %.3f Gbps, non-hotspots %.3f Gbps, all %.3f Gbps\n",
		res.Summary.HotspotAvgGbps, res.Summary.NonHotspotAvgGbps, res.Summary.AllAvgGbps)
	fmt.Printf("total    : %.1f Gbps network throughput (tmax non-hotspot %.3f Gbps)\n",
		res.Summary.TotalGbps, res.TMaxGbps)
	fmt.Printf("latency  : %v\n", res.Latency)
	fmt.Printf("engine   : %d events", res.Events)
	if resumedAt > 0 {
		fmt.Printf(", %d of them since the checkpoint,", res.Events-resumedAt)
	}
	fmt.Printf(" in %v (%.1fM events/s)\n", elapsed.Round(time.Millisecond),
		float64(res.Events-resumedAt)/elapsed.Seconds()/1e6)
	reportFaults(res.Faults)
	if *telem {
		reportTelemetry(smp)
	}
	reportCheck(ck, *quiet)
	if *ctree {
		ob.TreeReport().WriteTo(os.Stdout)
	}
}

// reportTelemetry prints the finished sampler's aggregates: mean
// per-class delivered rates, message-completion percentiles, and the
// hottest output ports by peak queue depth.
func reportTelemetry(smp *ibcc.TelemetrySampler) {
	snap := smp.Snapshot()
	mean := func(s ibcc.TelemetrySeries) float64 {
		if len(s.V) == 0 {
			return 0
		}
		return s.Sum() / float64(len(s.V))
	}
	fmt.Printf("telemetry: %.1fus cadence, %d bins; delivered hotspot %.3f / other %.3f / control %.3f Gbps (bin means)\n",
		snap.CadenceUS, len(snap.QueuedKB.V), mean(snap.HotspotGbps), mean(snap.OtherGbps), mean(snap.ControlGbps))
	c := snap.Completion
	if c.Count > 0 {
		fmt.Printf("  messages : %d completed, latency p50 %.1f / p90 %.1f / p99 %.1f us (max %.1f)\n",
			c.Count, c.P50, c.P90, c.P99, c.Max)
	}
	for i, p := range snap.HotPorts {
		if i >= 4 {
			break
		}
		kind := "switch"
		if p.HostPort {
			kind = "host uplink"
		}
		fmt.Printf("  hot port : sw%d port%d (%s) peak %.1f KB queued\n", p.Switch, p.Port, kind, p.PeakKB)
	}
}

// reportFaults prints what the fault injector did (nil = no plan).
func reportFaults(st *ibcc.FaultStats) {
	if st == nil {
		return
	}
	fmt.Printf("faults   : dropped data=%d fecn=%d cnp=%d ack=%d, credits deferred=%d, link downs/ups=%d/%d",
		st.DroppedData, st.DroppedFECN, st.DroppedCNP, st.DroppedAck,
		st.DroppedCredits, st.LinkDowns, st.LinkUps)
	switch {
	case st.Recovery > 0:
		fmt.Printf(", recovered %v after last fault", st.Recovery)
	case st.Recovery < 0:
		fmt.Printf(", NOT recovered within horizon")
	}
	fmt.Println()
}

// reportCheck prints the invariant checker's verdict (nil ck = checker
// off) and exits non-zero on violations.
func reportCheck(ck interface{ Report() *ibcc.InvariantReport }, quiet bool) {
	if ck == nil {
		return
	}
	rep := ck.Report()
	if err := rep.Err(); err != nil {
		for _, v := range rep.Violations {
			log.Printf("  %s", v)
		}
		log.Fatal(err)
	}
	if !quiet {
		fmt.Printf("check    : %s\n", rep.Summary())
	}
}

// runSeeds executes the scenario over n consecutive seeds on a worker
// pool and reports the aggregated rates.
func runSeeds(s ibcc.Scenario, n, jobs int, store *ibcc.ArtifactStore, quiet, check bool) {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = s.Seed + uint64(i)
	}
	opts := ibcc.SweepOpts(ibcc.RunOpts{Check: check}, jobs, n, store, nil)
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	start := time.Now()
	m, err := ibcc.RunSeedsOpts(s, seeds, opts)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	label := fmt.Sprintf("%s, seeds %d..%d", s.Name, seeds[0], seeds[n-1])
	m.Print(os.Stdout, label)
	if quiet {
		return
	}
	events := uint64(m.Events.Mean() * float64(m.Events.N()))
	fmt.Printf("engine   : %d runs, %d workers, ~%d events in %v (%.1fM events/s)\n",
		n, jobs, events, elapsed.Round(time.Millisecond),
		float64(events)/elapsed.Seconds()/1e6)
}

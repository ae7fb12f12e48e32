// Command ibccsim runs a single congestion-control scenario on an
// InfiniBand fat-tree and prints the measured rates, e.g.:
//
//	ibccsim -radix 18 -fracb 100 -p 60 -cc=true
//	ibccsim -radix 12 -lifetime 1ms              # moving hotspots
//	ibccsim -radix 36 -warmup 20ms -measure 100ms # paper scale (~20 s)
//	ibccsim -seeds 8 -jobs 4                     # 8 seeds over 4 workers
//	ibccsim -out results/                        # save a JSON artifact
//	ibccsim -radix 12 -ctree                     # print the congestion trees
//	ibccsim -events run.jsonl                    # every bus event as one JSON line
//	ibccsim -trace run.csv -traceint 50us        # time series of the telemetry sampler
//	ibccsim -radix 8 -telemetry -traceint 10us   # its bin means, completion times, hot ports
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
// -trace and -telemetry are two views of one telemetry sampler, which
// cuts the run into -traceint bins and keeps one row per bin for the
// whole run, up to telemetry.MaxBins rows: the CSV has a line per bin
// and the telemetry means cover every bin. A flag the run would not
// read (-jobs with one seed, -ckpt-dir or -ckpt-keep without
// -ckpt-every, -telemetry under -q, -traceint with no sampler) is
// refused before anything is simulated, never silently ignored.
//
// With -ckpt-every a single run writes a rolling series of crash-safe
// checkpoints (atomic rename + fsync + CRC), and -resume-from continues
// a run from a checkpoint file (or the newest one in a directory) with a
// trajectory byte-identical to never having stopped. Scenario flags are
// ignored on resume — the checkpoint carries the scenario. -check
// composes with both: the checker attaches at any event boundary, so a
// checkpointing run and a resumed one (whether or not the run that wrote
// the checkpoint was checked) are audited like any other. The flags that
// record a run's event stream (-trace, -events, -ctree, -telemetry) stay
// refused on -resume-from: they would show the resumed part only while
// reading as the whole run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/cliflag"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ibccsim: ")

	fs, o := newFlagSet(flag.ExitOnError)
	fs.Parse(os.Args[1:]) // ExitOnError: a bad flag exits 2 before this returns

	// Reject nonsensical numeric flags with one line and a non-zero
	// exit: a zero worker pool hangs, zero seeds shrink a sweep, and a
	// sampler finer than telemetry.MaxBins bins over the run would hold
	// more rows than it may. A flag the run would not read is refused
	// too, never silently ignored.
	sampled := o.traceCSV != "" || o.telem
	var traceSpan time.Duration
	if sampled {
		traceSpan = o.warmup + o.measure
	}
	for _, err := range []error{
		cliflag.Workers("-jobs", o.jobs),
		cliflag.Positive("-seeds", o.numSeeds),
		cliflag.Positive("-radix", o.radix),
		cliflag.Cadence("-traceint", o.traceInt, traceSpan, telemetry.MaxBins),
		unreadFlag(fs, o),
	} {
		if err != nil {
			log.Fatal(err)
		}
	}
	if o.ckEvery > 0 {
		if o.numSeeds > 1 {
			log.Fatal("-ckpt-every checkpoints a single run; use -seeds 1")
		}
		if err := cliflag.Positive("-ckpt-keep", o.ckKeep); err != nil {
			log.Fatal(err)
		}
	}
	if o.resume != "" {
		if o.numSeeds > 1 {
			log.Fatal("-resume-from continues a single run; use -seeds 1")
		}
		if o.faults != "" {
			log.Fatal("-resume-from: the checkpoint already carries the fault plan; drop -faults")
		}
		if o.traceCSV != "" || o.events != "" || o.ctree || o.telem {
			log.Fatal("-resume-from: a recording of the resumed part alone would read as the whole run; drop -trace/-events/-ctree/-telemetry")
		}
	}

	s := core.Default(o.radix)
	s.Seed = o.seed
	s.CCOn = o.ccOn
	s.FracBPct = o.fracB
	s.PPercent = o.p
	s.FracCOfRestPct = o.fracC
	s.NumHotspots = o.hotspots
	s.HotspotLifetime = sim.Duration(o.lifetime.Nanoseconds()) * sim.Nanosecond
	s.Warmup = sim.Duration(o.warmup.Nanoseconds()) * sim.Nanosecond
	s.Measure = sim.Duration(o.measure.Nanoseconds()) * sim.Nanosecond

	if o.faults != "" {
		f, err := os.Open(o.faults)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := fault.Decode(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		s.Faults = plan
	}

	var store *exp.Store
	if o.out != "" {
		var err error
		if store, err = exp.NewStore(o.out); err != nil {
			log.Fatal(err)
		}
	}

	if o.numSeeds > 1 {
		if o.traceCSV != "" || o.events != "" || o.ctree || o.telem {
			log.Fatal("-trace/-events/-ctree/-telemetry record a single run; use -seeds 1")
		}
		runSeeds(s, o.numSeeds, o.jobs, store, o.quiet, o.checkInv)
		return
	}

	start := time.Now()
	var inst *core.Instance
	var err error
	if o.resume != "" {
		if inst, err = core.RestoreFile(o.resume); err != nil {
			log.Fatal(err)
		}
		s = inst.Scenario
		if !o.quiet {
			from, _ := ckpt.Latest(o.resume)
			fmt.Printf("resume   : %s (%s)\n", from, s.Name)
		}
	} else if inst, err = core.Build(s); err != nil {
		log.Fatal(err)
	}
	// -trace and -telemetry are two views of one sampler, at -traceint.
	var smp *telemetry.Sampler
	if sampled {
		smp = telemetry.NewSampler(s.Name, sim.Duration(o.traceInt.Nanoseconds())*sim.Nanosecond)
	}
	var ob *core.Observation
	var evFile *os.File
	if o.events != "" || o.ctree || smp != nil {
		oo := core.ObserveOpts{Tree: o.ctree, Telemetry: smp}
		if o.events != "" {
			if evFile, err = os.Create(o.events); err != nil {
				log.Fatal(err)
			}
			oo.Events = evFile
		}
		ob = inst.Observe(oo)
	}
	var ck interface{ Report() *check.Report }
	if o.checkInv {
		ck = inst.Check(core.CheckOpts{Diagnostics: os.Stderr})
	}
	// A resumed run's event count covers the whole run; the rate below
	// is of the events this process executed.
	resumedAt := inst.Net.Sim().Processed()
	res, err := inst.ExecuteWithCheckpoints(core.CkptOpts{
		Every: sim.Duration(o.ckEvery.Nanoseconds()) * sim.Nanosecond, // 0 writes none
		Dir:   o.ckDir,
		Keep:  o.ckKeep,
		OnSave: func(path string, at sim.Time) {
			if !o.quiet {
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
	}
	if evFile != nil {
		if err := evFile.Close(); err != nil {
			log.Fatal(err)
		}
		if !o.quiet {
			fmt.Printf("events   : %d -> %s\n", ob.EventsWritten(), o.events)
		}
	}

	if store != nil {
		if err := store.Save(s, res, elapsed); err != nil {
			log.Print(err)
		} else if !o.quiet {
			fmt.Printf("artifact : %s/%s.json\n", store.Dir(), exp.Fingerprint(s)[:16])
		}
	}

	if o.traceCSV != "" {
		snap := smp.Snapshot()
		f, err := os.Create(o.traceCSV)
		if err != nil {
			log.Fatal(err)
		}
		if err := snap.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		if !o.quiet {
			fmt.Printf("trace    : %d samples every %v -> %s\n", len(snap.Rows), o.traceInt, o.traceCSV)
		}
	}

	if o.quiet {
		fmt.Println(res.Summary)
		reportCheck(ck, true)
		if o.ctree {
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
	if o.telem {
		reportTelemetry(smp)
	}
	reportCheck(ck, o.quiet)
	if o.ctree {
		ob.TreeReport().WriteTo(os.Stdout)
	}
}

// options holds every ibccsim flag.
type options struct {
	radix, fracB, p, fracC, hotspots, numSeeds, jobs, ckKeep int
	seed                                                     uint64
	ccOn, quiet, ctree, checkInv, telem                      bool
	lifetime, warmup, measure, traceInt, ckEvery             time.Duration
	traceCSV, out, events, faults, ckDir, resume             string
}

// newFlagSet defines every ibccsim flag on a fresh FlagSet, so a test
// can parse an invocation without running it.
func newFlagSet(onError flag.ErrorHandling) (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("ibccsim", onError)
	o := &options{}
	fs.IntVar(&o.radix, "radix", 18, "fat-tree crossbar radix (36 = paper's 648 nodes)")
	fs.Uint64Var(&o.seed, "seed", 1, "random seed")
	fs.BoolVar(&o.ccOn, "cc", true, "enable congestion control")
	fs.IntVar(&o.fracB, "fracb", 0, "percent of nodes that are B nodes")
	fs.IntVar(&o.p, "p", 0, "hotspot share p of B nodes (percent)")
	fs.IntVar(&o.fracC, "fracc", 80, "percent of non-B nodes that are C contributors")
	fs.IntVar(&o.hotspots, "hotspots", 8, "number of hotspots")
	fs.DurationVar(&o.lifetime, "lifetime", 0, "hotspot lifetime (0 = static hotspots)")
	fs.DurationVar(&o.warmup, "warmup", 4*time.Millisecond, "warmup before measurement")
	fs.DurationVar(&o.measure, "measure", 8*time.Millisecond, "measurement window")
	fs.BoolVar(&o.quiet, "q", false, "print only the summary line")
	fs.StringVar(&o.traceCSV, "trace", "", "write the telemetry sampler's time series (per-class rates, queues, CCTI, drops, stalls) as CSV to this file, one row per bin of the whole run")
	fs.DurationVar(&o.traceInt, "traceint", 100*time.Microsecond,
		fmt.Sprintf("bin width of the telemetry sampler that -trace and -telemetry read (at most %d bins per run)", telemetry.MaxBins))
	fs.IntVar(&o.numSeeds, "seeds", 1, "run this many seeds (seed, seed+1, ...) and report mean ±95% CI")
	fs.IntVar(&o.jobs, "jobs", 1, "simulation workers for -seeds > 1 (0 = one per CPU)")
	fs.StringVar(&o.out, "out", "", "artifact directory: persist results as JSON (and resume -seeds runs)")
	fs.StringVar(&o.events, "events", "", "write a JSONL event log of the run to this file")
	fs.BoolVar(&o.ctree, "ctree", false, "reconstruct the congestion trees from the event bus and print them")
	fs.BoolVar(&o.checkInv, "check", false, "run under the runtime invariant checker; exit non-zero on violations")
	fs.StringVar(&o.faults, "faults", "", "JSON fault plan: inject link faults and wire loss from this file")
	fs.BoolVar(&o.telem, "telemetry", false, "print the telemetry sampler's per-class rates (means over every -traceint bin of the run), message-completion percentiles and hottest ports")
	fs.DurationVar(&o.ckEvery, "ckpt-every", 0, "write a crash-safe checkpoint every this much simulated time (0 = off)")
	fs.StringVar(&o.ckDir, "ckpt-dir", "checkpoints", "directory for the -ckpt-every rolling series")
	fs.IntVar(&o.ckKeep, "ckpt-keep", 3, "checkpoints to keep in the -ckpt-every rolling series")
	fs.StringVar(&o.resume, "resume-from", "", "continue from a checkpoint file, or the newest checkpoint in a directory; scenario flags are ignored")
	return fs, o
}

// unreadFlag refuses a flag set on the command line that this run
// would not read: -jobs with one seed, the checkpoint series' shape
// without -ckpt-every, -telemetry under -q (which prints the summary
// line alone), and -traceint with no sampler to pace.
func unreadFlag(fs *flag.FlagSet, o *options) error {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case set["jobs"] && o.numSeeds == 1:
		return errors.New("-jobs spreads -seeds runs over workers, and one seed is one run; add -seeds or drop -jobs")
	case (set["ckpt-dir"] || set["ckpt-keep"]) && o.ckEvery <= 0:
		return errors.New("-ckpt-dir and -ckpt-keep shape the -ckpt-every series; add -ckpt-every")
	case o.quiet && o.telem:
		return errors.New("-q prints only the summary line, never -telemetry's; drop one of them")
	case set["traceint"] && o.traceCSV == "" && !o.telem:
		return errors.New("-traceint is the bin width of -trace and -telemetry; add one of them")
	}
	return nil
}

// reportTelemetry prints the finished sampler's aggregates: mean
// per-class delivered rates, message-completion percentiles, and the
// hottest output ports by peak queue depth.
func reportTelemetry(smp *telemetry.Sampler) {
	snap := smp.Snapshot()
	var hot, other, control float64
	for _, r := range snap.Rows {
		hot, other, control = hot+r.HotspotGbps, other+r.OtherGbps, control+r.ControlGbps
	}
	if n := float64(len(snap.Rows)); n > 0 {
		hot, other, control = hot/n, other/n, control/n
	}
	fmt.Printf("telemetry: %.1fus cadence, %d bins; delivered hotspot %.3f / other %.3f / control %.3f Gbps (bin means)\n",
		snap.CadenceUS, len(snap.Rows), hot, other, control)
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
func reportFaults(st *fault.Stats) {
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
func reportCheck(ck interface{ Report() *check.Report }, quiet bool) {
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
func runSeeds(s core.Scenario, n, jobs int, store *exp.Store, quiet, checkInv bool) {
	seeds := cliflag.Seeds(s.Seed, n)
	opts := exp.SweepOpts(core.Opts{Check: checkInv}, jobs, store)
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	start := time.Now()
	m, err := core.RunSeedsOpts(s, seeds, opts)
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

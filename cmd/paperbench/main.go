// Command paperbench regenerates every table and figure of the paper's
// evaluation section (Table II and figures 5–10), printing the same rows
// and series the paper reports.
//
//	paperbench                      # every experiment at radix 18
//	paperbench -exp fig8            # one experiment
//	paperbench -radix 36 -full      # paper scale and windows (slow)
//	paperbench -jobs 8              # fan simulations over 8 workers
//	paperbench -out results/        # persist + resume via JSON artifacts
//	paperbench -cpuprofile cpu.pb   # profile the run (go tool pprof)
//	paperbench -chrome-trace f5.trace -ctree  # flight-record the base scenario
//	paperbench -bench-kernel BENCH_kernel.json  # event-kernel + packet-lifecycle benchmark
//	paperbench -bench-kernel /tmp/fresh.json -bench-baseline BENCH_kernel.json  # >10% regression gate
//	paperbench -diff-kernel         # timing wheel vs reference heap, byte-identical check
//	paperbench -check -exp table2   # run experiments under the invariant checker
//	paperbench -degradation deg.json -seeds 3   # fault-intensity sweep, JSON artifact
//	paperbench -degradation deg.json -cc rcm    # the same, DCQCN-style backend in the CC-on leg
//	paperbench -tournament tour.json -seeds 2   # backend tournament, ranked table + JSON artifact
//	paperbench -tournament tour.json -cc ibcc,nocc  # restrict the bracket
//	paperbench -serve :8080                     # live telemetry dashboard while the sweep runs
//	paperbench -report run.json                 # unified run-report artifact (validate with cctinspect -report)
//	paperbench -progress-jsonl                  # machine-readable progress lines on stderr
//	paperbench -out results/                    # persist + resume via JSON artifacts
//	paperbench -resume-from results/            # resume an interrupted run (reads its manifest)
//
// SIGINT/SIGTERM drain the run gracefully: in-flight simulations finish,
// completed results stay in the artifact store, a resumable manifest is
// flushed next to them, the final telemetry snapshot lands in -report,
// and the dashboard server shuts down cleanly.
//
// Independent simulations fan out across -jobs workers (0 = one per
// CPU); the experiment harness guarantees the printed tables and
// figures are bit-identical to a serial (-jobs 1) run. With -out, every
// simulation's result is persisted as a JSON artifact keyed by scenario
// fingerprint, and a re-run loads matching artifacts instead of
// simulating again. -jobs, -out, -resume-from, -progress, -check and
// -report apply alike to the experiments, -degradation and -tournament
// (whose tree-scored runs are persisted but always simulated: an
// artifact carries no event stream to rebuild congestion trees from).
//
// At reduced radix the hotspot lifetimes of figures 9–10 are scaled by
// (radix/36)^2 so the ratio of lifetime to congestion-tree timescale is
// preserved; -full restores the paper's absolute values.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	ibcc "repro"
	"repro/internal/cliflag"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperbench: ")

	var (
		exp      = flag.String("exp", "all", "experiment: table2, fig5, fig6, fig7, fig8, fig9, fig10, all")
		radix    = flag.Int("radix", 18, "fat-tree crossbar radix (36 = paper scale)")
		seed     = flag.Uint64("seed", 1, "random seed")
		full     = flag.Bool("full", false, "paper-scale windows: 20 ms warmup, 100 ms measure, unscaled lifetimes")
		pstep    = flag.Int("pstep", 10, "p sweep step for figures 5-8")
		seeds    = flag.Int("seeds", 1, "seeds per Table II configuration (>1 adds confidence intervals)")
		jobs     = flag.Int("jobs", 1, "simulation workers (0 = one per CPU)")
		out      = flag.String("out", "", "artifact directory: persist every result as JSON and resume from it")
		progress = flag.Bool("progress", stderrIsTTY(), "live progress line on stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		benchK   = flag.String("bench-kernel", "", "benchmark the event kernel + packet lifecycle, write JSON here, then exit")
		benchN   = flag.Int("bench-events", 20_000_000, "steady-state event budget for -bench-kernel")
		benchB   = flag.String("bench-baseline", "", "with -bench-kernel: compare the fresh measurement (best of 3) against this committed BENCH_kernel.json and fail on >10% regression")
		diffK    = flag.Bool("diff-kernel", false, "differential kernel validation: run the Table II corpus on both event-list kernels under the invariant checker, then exit")
		checkInv = flag.Bool("check", false, "run every simulation under the runtime invariant checker (fails on violations)")
		events   = flag.String("events", "", "flight-record the base scenario: JSONL event log to this file, then exit")
		chrome   = flag.String("chrome-trace", "", "flight-record the base scenario: Chrome trace to this file, then exit")
		ctree    = flag.Bool("ctree", false, "flight-record the base scenario: print its congestion trees, then exit")
		degrade  = flag.String("degradation", "", "graceful-degradation sweep (fault intensity x CC on/off): write the JSON artifact here, then exit")
		tourn    = flag.String("tournament", "", "congestion-control backend tournament (backends x corpus x fault intensity): write the JSON artifact here, then exit")
		intens   = flag.String("intensities", "0,0.25,0.5,0.75,1", "comma-separated fault intensities for -degradation / -tournament")
		ccName   = flag.String("cc", "", "congestion control backend selection: one registry name for the simulated backend (-degradation's CC-on leg and every experiment), or a comma-separated list for -tournament's bracket (empty = default backend / all registered)")
		serve    = flag.String("serve", "", "serve the live telemetry dashboard on this address for the duration of the run (e.g. :8080, or 127.0.0.1:0 for an ephemeral port)")
		sprobe   = flag.Bool("serve-probe", false, "with -serve: fetch and validate /metrics.json mid-sweep and again after it (CI smoke); exit non-zero on failure")
		report   = flag.String("report", "", "write the unified run-report JSON artifact (sweep stats, telemetry aggregates, mode payload, kernel-bench trend) to this file")
		progJSON = flag.Bool("progress-jsonl", false, "machine-readable progress: one JSON line per completed simulation on stderr instead of the status line")
		resume   = flag.String("resume-from", "", "artifact directory of an interrupted run: report its manifest and resume from its artifacts (same as -out, plus the manifest summary)")
	)
	flag.Parse()

	// Numeric flag validation up front: a zero worker pool hangs, a
	// zero sweep step loops forever, and zero seeds silently shrink a
	// sweep — all better rejected with one line and a non-zero exit.
	for _, err := range []error{
		cliflag.Workers("-jobs", *jobs),
		cliflag.Positive("-seeds", *seeds),
		cliflag.Positive("-pstep", *pstep),
		cliflag.Positive("-radix", *radix),
		cliflag.Positive("-bench-events", *benchN),
	} {
		if err != nil {
			log.Fatal(err)
		}
	}

	ccNames, err := parseCCNames(*ccName)
	if err != nil {
		log.Fatal(err)
	}

	stopCPU := cliflag.StartCPUProfile(*cpuProf)
	defer stopCPU()
	defer cliflag.WriteMemProfile(*memProf)

	if *benchK != "" {
		if err := runBenchKernel(*benchK, int64(*benchN), *benchB); err != nil {
			log.Fatal(err)
		}
		return
	}

	base := ibcc.DefaultScenario(*radix)
	base.Seed = *seed
	if len(ccNames) == 1 {
		base.Backend = ccNames[0]
	} else if len(ccNames) > 1 && *tourn == "" {
		log.Fatalf("-cc with multiple names (%v) only makes sense with -tournament", ccNames)
	}
	ltScale := float64(*radix) * float64(*radix) / (36 * 36)
	if *full {
		base.Warmup = 20 * ibcc.Millisecond
		base.Measure = 100 * ibcc.Millisecond
		ltScale = 1
	}

	if *events != "" || *chrome != "" || *ctree {
		if err := flightRecord(base, *events, *chrome, *ctree); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *diffK {
		if err := runDiffKernel(base, *seeds); err != nil {
			log.Fatal(err)
		}
		return
	}

	// SIGINT/SIGTERM cancel the sweep context: dispatch stops, in-flight
	// simulations finish, and the fatal path below drains gracefully.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	tel, err := newLiveTelemetry(*serve, *sprobe, *report)
	if err != nil {
		log.Fatal(err)
	}
	defer tel.close()

	if *resume != "" {
		switch {
		case *out == "":
			*out = *resume
		case *out != *resume:
			log.Fatal("-resume-from and -out name different directories")
		}
	}
	var store *ibcc.ArtifactStore
	if *out != "" {
		if store, err = ibcc.NewArtifactStore(*out); err != nil {
			log.Fatal(err)
		}
	}
	if *resume != "" {
		if m, ok, err := store.ReadManifest(); err != nil {
			log.Print(err)
		} else if ok {
			log.Printf("resume: manifest of %s — %d done, %d pending", m.WrittenAt, m.NumDone, m.NumPending)
		} else {
			log.Printf("resume: no manifest in %s; resuming from %d artifacts", *out, store.Len())
		}
	}

	// fatal exits on a sweep error; an interrupt additionally flushes a
	// resumable manifest next to the artifacts and the final telemetry
	// snapshot into the report, and shuts the dashboard down before
	// exiting non-zero.
	fatal := func(err error) {
		if errors.Is(err, context.Canceled) {
			if store != nil {
				if path, err := store.WriteManifest(true); err != nil {
					log.Print(err)
				} else {
					log.Printf("drain: manifest -> %s", path)
				}
			}
			tel.drain(base.Name, *radix, *seeds)
			log.Fatal("interrupted — completed results are saved; re-run with -resume-from to continue")
		}
		log.Fatal(err)
	}

	// experiment runs one named batch of sweeps — a figure, the
	// degradation grid, the tournament bracket — with the options every
	// mode shares, then reports its cost from the progress counters.
	experiment := func(name string, totalSims int, fn func(o ibcc.RunOpts) error) {
		w := io.Discard
		if *progress || *progJSON {
			w = os.Stderr
		}
		prog := ibcc.NewProgress(w, totalSims)
		if *progJSON {
			prog = ibcc.NewProgressJSONL(w, totalSims)
		}
		o := ibcc.SweepOpts(ibcc.RunOpts{Ctx: ctx, Check: *checkInv, Telemetry: tel.hub, Spans: tel.spans},
			*jobs, totalSims, store, prog)
		observe := o.OnResult
		o.OnResult = func(s ibcc.Scenario, r *ibcc.Result, cached bool) {
			observe(s, r, cached)
			tel.midProbe()
		}
		start := time.Now()
		err := fn(o)
		prog.Finish()
		if err != nil {
			fatal(err)
		}
		wall := time.Since(start)
		sims, cached, events := prog.Counts()
		line := fmt.Sprintf("experiment %s: %d sims, %d simulated events, %v wall",
			name, sims, events, wall.Round(time.Millisecond))
		if secs := wall.Seconds(); secs > 0 && events > 0 {
			line += fmt.Sprintf(" (%.1fM events/s)", float64(events)/secs/1e6)
		}
		if cached > 0 {
			line += fmt.Sprintf(", %d from artifacts", cached)
		}
		fmt.Println(line)
		fmt.Println()
	}
	// finish writes the run report (and runs the final -serve-probe).
	finish := func(kind string, payload []byte) {
		if err := tel.finish(kind, base.Name, *radix, *seeds, payload); err != nil {
			log.Fatal(err)
		}
	}

	if *degrade != "" || *tourn != "" {
		ins, err := cliflag.Intensities("-intensities", *intens)
		if err != nil {
			log.Fatal(err)
		}
		seedList := seedsFrom(base.Seed, *seeds)
		var payload []byte
		if *degrade != "" {
			experiment("degradation", len(ins)*len(seedList)*2, func(o ibcc.RunOpts) (err error) {
				payload, err = runDegradation(base, *degrade, ins, seedList, o)
				return err
			})
			finish(ibcc.ReportDegradation, payload)
			return
		}
		nBackends := len(ccNames)
		if nBackends == 0 {
			nBackends = len(ibcc.CCBackends())
		}
		experiment("tournament", len(ibcc.DefaultTournamentCorpus())*len(ins)*len(seedList)*nBackends, func(o ibcc.RunOpts) (err error) {
			payload, err = runTournament(base, *tourn, ins, seedList, ccNames, o)
			return err
		})
		finish(ibcc.ReportTournament, payload)
		return
	}

	var ps []int
	for p := 0; p <= 100; p += *pstep {
		ps = append(ps, p)
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	start := time.Now()

	if want("table2") {
		total := 4
		if *seeds > 1 {
			total += 2 * *seeds
		}
		experiment("table2", total, func(o ibcc.RunOpts) error {
			tab, err := ibcc.RunTableIIOpts(base, o)
			if err != nil {
				return err
			}
			tab.Print(os.Stdout)
			fmt.Println()
			if *seeds > 1 {
				for _, ccOn := range []bool{false, true} {
					s := base
					s.CCOn = ccOn
					m, err := ibcc.RunSeedsOpts(s, ibcc.Seeds(*seeds), o)
					if err != nil {
						return err
					}
					label := "Table II hotspot scenario, CC off"
					if ccOn {
						label = "Table II hotspot scenario, CC on"
					}
					m.Print(os.Stdout, label)
				}
				fmt.Println()
			}
			return nil
		})
	}

	windy := []struct {
		fig   string
		fracB int
	}{{"5", 25}, {"6", 50}, {"7", 75}, {"8", 100}}
	for _, wf := range windy {
		if !want("fig" + wf.fig) {
			continue
		}
		experiment("fig"+wf.fig, 2*len(ps), func(o ibcc.RunOpts) error {
			pts, err := ibcc.RunWindySweepOpts(base, wf.fracB, ps, o)
			if err != nil {
				return err
			}
			ibcc.PrintWindy(os.Stdout, wf.fig, wf.fracB, pts)
			fmt.Println()
			return nil
		})
	}

	lifetimes := ibcc.PaperLifetimes(ltScale)
	if want("fig9") {
		experiment("fig9", 2*2*len(lifetimes), func(o ibcc.RunOpts) error {
			for _, mix := range []struct {
				label string
				fracC int
			}{{"9(a) 20% V / 80% C", 80}, {"9(b) 60% V / 40% C", 40}} {
				s := base
				s.FracBPct = 0
				s.FracCOfRestPct = mix.fracC
				pts, err := ibcc.RunMovingSweepOpts(s, lifetimes, o)
				if err != nil {
					return err
				}
				fig, label, _ := strings.Cut(mix.label, " ")
				ibcc.PrintMoving(os.Stdout, fig, label+" (lifetimes x"+fmt.Sprintf("%.3f", ltScale)+")", pts)
				fmt.Println()
			}
			return nil
		})
	}

	if want("fig10") {
		experiment("fig10", 3*2*len(lifetimes), func(o ibcc.RunOpts) error {
			for _, p := range []int{30, 60, 90} {
				s := base
				s.FracBPct = 100
				s.PPercent = p
				pts, err := ibcc.RunMovingSweepOpts(s, lifetimes, o)
				if err != nil {
					return err
				}
				label := fmt.Sprintf("100%% B nodes, p=%d (lifetimes x%.3f)", p, ltScale)
				ibcc.PrintMoving(os.Stdout, fmt.Sprintf("10 p=%d", p), label, pts)
				fmt.Println()
			}
			return nil
		})
	}

	finish(ibcc.ReportExperiments, nil)
	fmt.Printf("paperbench: done in %v\n", time.Since(start).Round(time.Second))
}

// runDegradation is the graceful-degradation mode: fault plans of
// increasing intensity are synthesized per (intensity, seed), each one
// runs with CC off and on, and the receive-rate / recovery curves are
// printed and written as a JSON artifact, which is also returned for
// the run report. Intensity 0 is the unfaulted baseline (a zero plan is
// treated as absent), so the curve starts at the healthy operating
// point.
func runDegradation(base ibcc.Scenario, path string, ins []float64, seedList []uint64, o ibcc.RunOpts) ([]byte, error) {
	start := time.Now()
	pts, err := ibcc.RunDegradationOpts(base, ins, seedList, o)
	if err != nil {
		return nil, err
	}
	ibcc.PrintDegradation(os.Stdout, pts)

	data, err := json.MarshalIndent(struct {
		Scenario string                  `json:"scenario"`
		Radix    int                     `json:"radix"`
		Seeds    []uint64                `json:"seeds"`
		Points   []ibcc.DegradationPoint `json:"points"`
	}{base.Name, base.Radix, seedList, pts}, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("degradation: %d intensities x %d seeds x 2 CC legs in %v -> %s\n",
		len(ins), len(seedList), time.Since(start).Round(time.Millisecond), path)
	return data, nil
}

// runTournament is the backend-tournament mode: every selected backend
// runs the scenario corpus across the fault-intensity grid, each cell
// is scored and ranked, and the table is printed and written as a JSON
// artifact (render it again later with cctinspect -tournament), which
// is also returned for the run report.
func runTournament(base ibcc.Scenario, path string, ins []float64, seedList []uint64, backends []string, o ibcc.RunOpts) ([]byte, error) {
	start := time.Now()
	tab, err := ibcc.RunTournament(ibcc.TournamentConfig{
		Base:        base,
		Backends:    backends,
		Intensities: ins,
		Seeds:       seedList,
		Opts:        o,
	})
	if err != nil {
		return nil, err
	}
	ibcc.PrintTournament(os.Stdout, tab)

	data, err := json.MarshalIndent(tab, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("tournament: %d backends x %d shapes x %d intensities x %d seeds in %v -> %s\n",
		len(tab.Backends), len(tab.Corpus), len(ins), len(seedList),
		time.Since(start).Round(time.Millisecond), path)
	return data, nil
}

// parseCCNames validates the -cc flag: a comma-separated list of
// registered backend names. Unknown names are fatal and list the
// registry, so a typo cannot silently run the default mechanism.
func parseCCNames(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	var names []string
	for _, n := range strings.Split(s, ",") {
		n = strings.TrimSpace(n)
		if !ibcc.CCBackendKnown(n) {
			return nil, fmt.Errorf("-cc: unknown backend %q (registered: %s)",
				n, strings.Join(ibcc.CCBackends(), ", "))
		}
		names = append(names, n)
	}
	return names, nil
}

// seedsFrom returns n seeds counting up from base; n is validated
// (>= 1) at flag parse time.
func seedsFrom(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}

// runDiffKernel is the differential kernel validation mode: every
// Table II configuration of the base scenario, over the given number of
// seeds, runs on both event-list kernels (production timing wheel and
// reference binary heap) plus once more under the runtime invariant
// checker. Any trajectory divergence, invariant violation, or
// checker-induced perturbation is an error.
func runDiffKernel(base ibcc.Scenario, seeds int) error {
	start := time.Now()
	failures := 0
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		s0 := base
		s0.Seed = base.Seed + seed
		for _, s := range ibcc.TableIIScenarios(s0) {
			d, err := ibcc.RunDifferential(s)
			if err != nil {
				return err
			}
			_, rep, err := ibcc.RunChecked(s, ibcc.CheckOpts{Diagnostics: os.Stderr})
			if err != nil {
				return err
			}
			status := "ok"
			if !d.Match() {
				status = "KERNEL MISMATCH"
				failures++
			} else if rep.Total > 0 {
				status = fmt.Sprintf("%d VIOLATIONS", rep.Total)
				failures++
			}
			fmt.Printf("%-40s seed %-3d digest %s  %8d records  %-6s\n",
				s.Name, s0.Seed, d.Wheel.Digest, d.Wheel.Records, status)
			fmt.Printf("    check: %s\n", rep.Summary())
			if !d.Match() {
				for _, m := range d.Mismatches() {
					fmt.Printf("    %s\n", m)
				}
			}
			for _, v := range rep.Violations {
				fmt.Printf("    %s\n", v)
			}
		}
	}
	fmt.Printf("diff-kernel: %d configurations x %d seeds in %v\n",
		4, seeds, time.Since(start).Round(time.Millisecond))
	if failures > 0 {
		return fmt.Errorf("diff-kernel: %d configuration(s) failed", failures)
	}
	fmt.Println("diff-kernel: wheel and reference-heap trajectories byte-identical, zero invariant violations")
	return nil
}

// flightRecord runs the base scenario once with the flight recorder
// attached, instead of the experiment sweeps: the observability pass
// over the exact configuration the figures use.
func flightRecord(s ibcc.Scenario, eventsPath, chromePath string, ctree bool) error {
	inst, err := ibcc.Build(s)
	if err != nil {
		return err
	}
	o := ibcc.ObserveOpts{Tree: ctree}
	var files []*os.File
	if eventsPath != "" {
		f, err := os.Create(eventsPath)
		if err != nil {
			return err
		}
		o.Events = f
		files = append(files, f)
	}
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			return err
		}
		o.ChromeTrace = f
		files = append(files, f)
	}
	ob := inst.Observe(o)
	start := time.Now()
	res := inst.Execute()
	if err := ob.Close(); err != nil {
		return err
	}
	for _, f := range files {
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("flight recording: %s, %d events in %v\n",
		s.Name, res.Events, time.Since(start).Round(time.Millisecond))
	nj, nc := ob.EventsWritten()
	if eventsPath != "" {
		fmt.Printf("  events: %d -> %s\n", nj, eventsPath)
	}
	if chromePath != "" {
		fmt.Printf("  trace : %d events -> %s (open in ui.perfetto.dev)\n", nc, chromePath)
	}
	if ctree {
		if _, err := ob.TreeReport().WriteTo(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// stderrIsTTY reports whether stderr is a character device, gating the
// default for the live progress line.
func stderrIsTTY() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

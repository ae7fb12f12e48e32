// Command paperbench regenerates every table and figure of the paper's
// evaluation section (Table II and figures 5–10), printing the same rows
// and series the paper reports, and runs the sweeps around them. An
// optional first word picks the command; without one it runs the
// experiments:
//
//	paperbench                         # every experiment at radix 18
//	paperbench -exp fig8               # one experiment
//	paperbench -radix 36 -full         # paper scale and windows (slow)
//	paperbench -jobs 8 -out results/   # 8 workers; persist + resume via JSON artifacts
//	paperbench -serve :8080 -report run.json  # live dashboard + unified run report
//	paperbench scan -scan threshold -check    # checked CC parameter sensitivity scan
//	paperbench degradation -seeds 3 deg.json       # fault intensity x CC on/off
//	paperbench tournament -cc ibcc,nocc tour.json  # backend tournament
//	paperbench diff-kernel -seeds 2    # timing wheel vs reference heap
//	paperbench bench-kernel -baseline BENCH_kernel.json /tmp/fresh.json  # kernel benchmark + >10% gate
//
// Every command accepts only the flags it reads (`paperbench <command>
// -h` lists them): a flag of another command is a usage error, never
// silently ignored. An output path goes after the flags.
//
// The sweep commands (experiments, scan, degradation, tournament) share
// one harness: -jobs workers with tables bit-identical to a serial run,
// a resumable -out artifact store, -check, -progress, -serve, -report,
// and a graceful SIGINT/SIGTERM drain that leaves a manifest in -out.
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
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	ibcc "repro"
	"repro/internal/cliflag"
	"repro/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperbench: ")
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses and executes one invocation and returns its exit code: 2
// for a usage error, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	c, body, err := parse(args, stdout, stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}
	stopCPU := cliflag.StartCPUProfile(c.cpuProfile)
	defer stopCPU()
	defer cliflag.WriteMemProfile(c.memProfile)
	if err := body(); err != nil {
		fmt.Fprintf(stderr, "paperbench: %v\n", err)
		return 1
	}
	return 0
}

// command is one paperbench mode: the first word that selects it, the
// shared flag groups it reads, and define, which registers its own
// flags and returns its body.
type command struct {
	name   string // "" = the experiments, run when no word is given
	arg    string // its one positional argument ("" = none)
	flags  flagGroup
	about  string
	define func(fs *flag.FlagSet, c *runConfig) func(arg string) error
}

var commands = []command{
	{"", "", scenarioFlags | seedsFlag | ccFlag | sweepFlags,
		"Table II and figures 5-10", experimentsCmd},
	{"scan", "", scenarioFlags | sweepFlags,
		"CC parameter sensitivity scans against a shared CC-off baseline", scanCmd},
	{"degradation", "OUT.json", scenarioFlags | seedsFlag | ccFlag | sweepFlags,
		"fault intensity x CC on/off sweep; writes the curves as JSON", degradationCmd},
	{"tournament", "OUT.json", scenarioFlags | seedsFlag | bracketFlag | sweepFlags,
		"CC backends x corpus x fault intensity; writes the ranked table as JSON", tournamentCmd},
	{"diff-kernel", "", scenarioFlags | seedsFlag | ccFlag,
		"Table II corpus on both event-list kernels under the invariant checker", diffKernelCmd},
	{"bench-kernel", "OUT.json", 0,
		"event-kernel + packet-lifecycle benchmark; writes BENCH_kernel.json", benchKernelCmd},
}

// parse resolves args against the command table without running
// anything: an optional first word picks the command, whose FlagSet
// holds only the flags that command reads. Errors are reported on
// stderr; the returned function runs the command.
func parse(args []string, stdout, stderr io.Writer) (*runConfig, func() error, error) {
	name := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	i := slices.IndexFunc(commands, func(c command) bool { return c.name == name })
	if i < 0 {
		fmt.Fprintf(stderr, "paperbench: unknown command %q (paperbench -h lists them)\n", name)
		return nil, nil, fmt.Errorf("unknown command %q", name)
	}
	cmd := &commands[i]
	fs := flag.NewFlagSet(strings.TrimSpace("paperbench "+name), flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(stderr, cmd, fs) }
	c := &runConfig{w: stdout}
	c.register(fs, cmd.flags)
	body := cmd.define(fs, c)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err // the flag package reported it
	}
	err := c.validate(cmd.flags)
	switch {
	case err != nil:
	case cmd.arg == "" && fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case cmd.arg != "" && fs.NArg() != 1:
		err = fmt.Errorf("%s takes one %s argument after its flags, got %q", name, cmd.arg, fs.Args())
	}
	if err != nil {
		fmt.Fprintf(stderr, "paperbench: %v\n", err)
		return nil, nil, err
	}
	return c, func() error { return body(fs.Arg(0)) }, nil
}

// usage prints a command's synopsis and flags; the default command's
// also lists the others.
func usage(w io.Writer, cmd *command, fs *flag.FlagSet) {
	fmt.Fprintf(w, "usage: %s\n  %s\n", strings.TrimSpace(fs.Name()+" [flags] "+cmd.arg), cmd.about)
	if cmd.name == "" {
		fmt.Fprintln(w, "\nor: paperbench <command> [flags], with commands")
		for _, c := range commands[1:] {
			fmt.Fprintf(w, "  %-13s %-9s %s\n", c.name, c.arg, c.about)
		}
		fmt.Fprintln(w)
	}
	fs.PrintDefaults()
}

// flagGroup selects the shared flags a command reads.
type flagGroup uint8

const (
	scenarioFlags flagGroup = 1 << iota // -radix -seed -full
	seedsFlag                           // -seeds
	ccFlag                              // -cc: the one simulated backend
	bracketFlag                         // -cc: the tournament's backend list
	sweepFlags                          // -jobs -out -progress -progress-jsonl -check -serve -serve-probe -report
)

// runConfig is every flag the commands share, each defined once in
// register; base and sweep build what the commands run from it.
type runConfig struct {
	radix                  int
	seed                   uint64
	seeds                  int
	full                   bool
	cc                     string
	jobs                   int
	out                    string
	progress, progJSONL    bool
	check                  bool
	serve                  string
	serveProbe             bool
	report                 string
	cpuProfile, memProfile string

	w io.Writer // tables, experiment lines and mode summaries
}

func (c *runConfig) register(fs *flag.FlagSet, g flagGroup) {
	if g&scenarioFlags != 0 {
		fs.IntVar(&c.radix, "radix", 18, "fat-tree crossbar radix (36 = paper scale)")
		fs.Uint64Var(&c.seed, "seed", 1, "random seed")
		fs.BoolVar(&c.full, "full", false, "paper-scale windows: 20 ms warmup, 100 ms measure, unscaled lifetimes")
	}
	if g&seedsFlag != 0 {
		fs.IntVar(&c.seeds, "seeds", 1, "seeds per configuration, counting up from -seed (>1 adds Table II's confidence intervals)")
	}
	if g&ccFlag != 0 {
		fs.StringVar(&c.cc, "cc", "", "congestion control backend by registry name (empty = the default)")
	}
	if g&bracketFlag != 0 {
		fs.StringVar(&c.cc, "cc", "", "comma-separated backends to bracket (empty = every registered one)")
	}
	if g&sweepFlags != 0 {
		fs.IntVar(&c.jobs, "jobs", 1, "simulation workers (0 = one per CPU)")
		fs.StringVar(&c.out, "out", "", "artifact directory: persist every result as JSON and resume from it, reporting an interrupted run's manifest")
		fs.BoolVar(&c.progress, "progress", stderrIsTTY(), "live progress line on stderr")
		fs.BoolVar(&c.progJSONL, "progress-jsonl", false, "machine-readable progress: one JSON line per completed simulation on stderr instead of the status line")
		fs.BoolVar(&c.check, "check", false, "run every simulation under the runtime invariant checker (fails on violations)")
		fs.StringVar(&c.serve, "serve", "", "serve the live telemetry dashboard on this address for the duration of the run (e.g. :8080, or 127.0.0.1:0 for an ephemeral port)")
		fs.BoolVar(&c.serveProbe, "serve-probe", false, "with -serve: fetch and validate /metrics.json mid-sweep and again after it (CI smoke); exit non-zero on failure")
		fs.StringVar(&c.report, "report", "", "write the unified run-report JSON artifact (sweep stats, telemetry aggregates, mode payload, kernel-bench trend) to this file")
	}
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file on exit")
}

// validate rejects shared flag values up front: a zero worker pool
// hangs, zero seeds silently shrink a sweep, and an unknown backend
// name would silently run the default mechanism.
func (c *runConfig) validate(g flagGroup) error {
	var errs []error
	if g&scenarioFlags != 0 {
		errs = append(errs, cliflag.Positive("-radix", c.radix))
	}
	if g&seedsFlag != 0 {
		errs = append(errs, cliflag.Positive("-seeds", c.seeds))
	}
	if g&sweepFlags != 0 {
		errs = append(errs, cliflag.Workers("-jobs", c.jobs))
		if c.serveProbe && c.serve == "" {
			errs = append(errs, errors.New("-serve-probe requires -serve"))
		}
	}
	names := []string{c.cc}
	if g&bracketFlag != 0 {
		names = c.bracket()
	}
	for _, n := range names {
		if !ibcc.CCBackendKnown(n) {
			errs = append(errs, fmt.Errorf("-cc: unknown backend %q (registered: %s)",
				n, strings.Join(ibcc.CCBackends(), ", ")))
		}
	}
	return errors.Join(errs...)
}

// bracket is -cc as the tournament's backend list (empty = all).
func (c *runConfig) bracket() []string {
	if c.cc == "" {
		return ibcc.CCBackends()
	}
	names := strings.Split(c.cc, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return names
}

// base is the scenario every command derives its runs from.
func (c *runConfig) base() ibcc.Scenario {
	s := ibcc.DefaultScenario(c.radix)
	s.Seed = c.seed
	if ibcc.CCBackendKnown(c.cc) { // one name, not the tournament's list
		s.Backend = c.cc
	}
	if c.full {
		s.Warmup = 20 * ibcc.Millisecond
		s.Measure = 100 * ibcc.Millisecond
	}
	return s
}

// sweep is the harness a sweep command's experiments share. The first
// failed experiment's error sticks: later ones do not run, and sweep
// returns it.
type sweep struct {
	*runConfig
	name  string // the base scenario's, for the run report
	ctx   context.Context
	store *ibcc.ArtifactStore
	err   error

	// The telemetry surface (telemetry.go).
	hub       *ibcc.TelemetryHub
	spans     *ibcc.SpanTracker
	srv       *ibcc.TelemetryServer
	addr      string
	mu        sync.Mutex // guards probeErr
	probeOnce sync.Once
	probeErr  error
}

// sweep runs body in the harness — telemetry surface, -out store, a
// context SIGINT/SIGTERM cancel — and ends with the run report of the
// given kind carrying body's payload.
func (c *runConfig) sweep(name, kind string, body func(sw *sweep) (payload []byte)) error {
	sw := &sweep{runConfig: c, name: name}
	defer sw.stopServer()
	err := sw.startTelemetry()
	if err != nil {
		return err
	}
	if c.out != "" {
		if sw.store, err = ibcc.NewArtifactStore(c.out); err != nil {
			return err
		}
		if m, ok, err := sw.store.ReadManifest(); err != nil {
			log.Print(err)
		} else if ok {
			log.Printf("resume: manifest of %s — %d done, %d pending", m.WrittenAt, m.NumDone, m.NumPending)
		}
	}
	var stop context.CancelFunc
	sw.ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	payload := body(sw)
	if sw.err != nil {
		return sw.err
	}
	return sw.finish(kind, payload)
}

// experiment runs one named batch of simulations — a figure, a scan,
// the degradation grid, the tournament bracket — with the options every
// command shares, then reports its cost from the progress counters. An
// interrupt flushes a resumable manifest next to the artifacts and the
// final telemetry snapshot into the report before failing.
func (sw *sweep) experiment(name string, totalSims int, fn func(o ibcc.RunOpts) error) {
	if sw.err != nil {
		return
	}
	w := io.Discard
	if sw.progress || sw.progJSONL {
		w = os.Stderr
	}
	prog := ibcc.NewProgress(w, totalSims)
	if sw.progJSONL {
		prog = ibcc.NewProgressJSONL(w, totalSims)
	}
	o := ibcc.SweepOpts(ibcc.RunOpts{Ctx: sw.ctx, Check: sw.check, Telemetry: sw.hub, Spans: sw.spans},
		sw.jobs, totalSims, sw.store, prog)
	observe := o.OnResult
	o.OnResult = func(s ibcc.Scenario, r *ibcc.Result, cached bool) {
		observe(s, r, cached)
		sw.midProbe()
	}
	start := time.Now()
	sw.err = fn(o)
	prog.Finish()
	if errors.Is(sw.err, context.Canceled) {
		if sw.store != nil {
			if path, err := sw.store.WriteManifest(true); err != nil {
				log.Print(err)
			} else {
				log.Printf("drain: manifest -> %s", path)
			}
		}
		if err := sw.writeReport(ibcc.ReportExperiments, nil); err != nil {
			log.Print(err)
		}
		sw.err = errors.New("interrupted — completed results are saved; re-run with the same -out to continue")
	}
	if sw.err != nil {
		return
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
	fmt.Fprintf(sw.w, "%s\n\n", line)
}

var experimentNames = []string{"table2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"}

// experimentsCmd is the default command: Table II and figures 5–10.
func experimentsCmd(fs *flag.FlagSet, c *runConfig) func(string) error {
	exp := fs.String("exp", "all", "experiment: "+strings.Join(experimentNames, ", ")+", all")
	pstep := fs.Int("pstep", 10, "p sweep step for figures 5-8")
	return func(string) error {
		if err := cliflag.Positive("-pstep", *pstep); err != nil {
			return err
		}
		if *exp != "all" && !slices.Contains(experimentNames, *exp) {
			return fmt.Errorf("-exp: unknown experiment %q", *exp)
		}
		want := func(name string) bool { return *exp == "all" || *exp == name }
		base := c.base()
		var ps []int
		for p := 0; p <= 100; p += *pstep {
			ps = append(ps, p)
		}
		ltScale := float64(c.radix) * float64(c.radix) / (36 * 36)
		if c.full {
			ltScale = 1
		}
		lifetimes := ibcc.PaperLifetimes(ltScale)
		start := time.Now()
		err := c.sweep(base.Name, ibcc.ReportExperiments, func(sw *sweep) []byte {
			if want("table2") {
				total := 4
				if c.seeds > 1 {
					total += 2 * c.seeds
				}
				sw.experiment("table2", total, func(o ibcc.RunOpts) error {
					tab, err := ibcc.RunTableIIOpts(base, o)
					if err != nil {
						return err
					}
					tab.Print(c.w)
					fmt.Fprintln(c.w)
					if c.seeds == 1 {
						return nil
					}
					for _, leg := range []struct {
						ccOn  bool
						label string
					}{{false, "Table II hotspot scenario, CC off"}, {true, "Table II hotspot scenario, CC on"}} {
						s := base
						s.CCOn = leg.ccOn
						m, err := ibcc.RunSeedsOpts(s, cliflag.Seeds(c.seed, c.seeds), o)
						if err != nil {
							return err
						}
						m.Print(c.w, leg.label)
					}
					fmt.Fprintln(c.w)
					return nil
				})
			}

			for _, wf := range []struct {
				fig   string
				fracB int
			}{{"5", 25}, {"6", 50}, {"7", 75}, {"8", 100}} {
				if want("fig" + wf.fig) {
					sw.experiment("fig"+wf.fig, 2*len(ps), func(o ibcc.RunOpts) error {
						pts, err := ibcc.RunWindySweepOpts(base, wf.fracB, ps, o)
						if err != nil {
							return err
						}
						ibcc.PrintWindy(c.w, wf.fig, wf.fracB, pts)
						fmt.Fprintln(c.w)
						return nil
					})
				}
			}

			if want("fig9") {
				sw.experiment("fig9", 2*2*len(lifetimes), func(o ibcc.RunOpts) error {
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
						ibcc.PrintMoving(c.w, fig, label+" (lifetimes x"+fmt.Sprintf("%.3f", ltScale)+")", pts)
						fmt.Fprintln(c.w)
					}
					return nil
				})
			}

			if want("fig10") {
				sw.experiment("fig10", 3*2*len(lifetimes), func(o ibcc.RunOpts) error {
					for _, p := range []int{30, 60, 90} {
						s := base
						s.FracBPct = 100
						s.PPercent = p
						pts, err := ibcc.RunMovingSweepOpts(s, lifetimes, o)
						if err != nil {
							return err
						}
						label := fmt.Sprintf("100%% B nodes, p=%d (lifetimes x%.3f)", p, ltScale)
						ibcc.PrintMoving(c.w, fmt.Sprintf("10 p=%d", p), label, pts)
						fmt.Fprintln(c.w)
					}
					return nil
				})
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(c.w, "paperbench: done in %v\n", time.Since(start).Round(time.Second))
		return nil
	}
}

// scans are the one-parameter CC sensitivity scans — the tuning problem
// the paper calls "a highly specialized task". Each sweeps one value
// over the base scenario, holding Table I values for the rest.
type scan struct {
	name   string
	values []int
	apply  func(*ibcc.Scenario, int)
}

var scans = []scan{
	{"threshold", []int{1, 3, 5, 7, 9, 11, 13, 15},
		func(s *ibcc.Scenario, v int) { s.CC.Threshold = uint8(v) }},
	{"timer", []int{38, 75, 150, 300, 600, 1200},
		func(s *ibcc.Scenario, v int) { s.CC.CCTITimer = uint16(v) }},
	{"increase", []int{1, 2, 4, 8, 16},
		func(s *ibcc.Scenario, v int) { s.CC.CCTIIncrease = uint16(v) }},
	{"markingrate", []int{0, 1, 3, 7, 15},
		func(s *ibcc.Scenario, v int) { s.CC.MarkingRate = uint16(v) }},
	{"cctlimit", []int{7, 13, 27, 55, 111},
		func(s *ibcc.Scenario, v int) { s.CC.CCTILimit = uint16(v) }},
	{"backlog", []int{1, 2, 4, 8, 16},
		func(s *ibcc.Scenario, v int) { s.BacklogCap = v }},
}

// scanCmd runs the parameter scans on the silent forest (or a windy one
// with -fracb/-p), each against a shared CC-off baseline.
func scanCmd(fs *flag.FlagSet, c *runConfig) func(string) error {
	which := fs.String("scan", "all", "threshold, timer, increase, markingrate, cctlimit, backlog, all")
	fracB := fs.Int("fracb", 0, "percent of B nodes")
	p := fs.Int("p", 0, "hotspot share of B nodes")
	return func(string) error {
		if *which != "all" && !slices.ContainsFunc(scans, func(sc scan) bool { return sc.name == *which }) {
			return fmt.Errorf("-scan: unknown scan %q", *which)
		}
		base := c.base()
		base.FracBPct = *fracB
		base.PPercent = *p
		start := time.Now()
		err := c.sweep(base.Name, ibcc.ReportExperiments, func(sw *sweep) []byte {
			for _, sc := range scans {
				if *which != "all" && *which != sc.name {
					continue
				}
				sw.experiment("scan "+sc.name, 1+len(sc.values), func(o ibcc.RunOpts) error {
					res, err := core.ScanCCOpts(base, sc.name, sc.values, sc.apply, o)
					if err != nil {
						return err
					}
					res.Print(c.w)
					fmt.Fprintln(c.w)
					return nil
				})
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(c.w, "paperbench: done in %v\n", time.Since(start).Round(time.Second))
		return nil
	}
}

// degradationCmd is the graceful-degradation sweep: fault plans of
// increasing intensity are synthesized per (intensity, seed), each one
// runs with CC off and on, and the receive-rate / recovery curves are
// printed and written as a JSON artifact, which also goes into the run
// report. Intensity 0 is the unfaulted baseline (a zero plan is treated
// as absent), so the curve starts at the healthy operating point.
func degradationCmd(fs *flag.FlagSet, c *runConfig) func(string) error {
	intens := fs.String("intensities", "0,0.25,0.5,0.75,1", "comma-separated fault intensities in [0, 1]")
	return func(path string) error {
		ins, err := cliflag.Intensities("-intensities", *intens)
		if err != nil {
			return err
		}
		base, seeds := c.base(), cliflag.Seeds(c.seed, c.seeds)
		return c.sweep(base.Name, ibcc.ReportDegradation, func(sw *sweep) (data []byte) {
			sw.experiment("degradation", len(ins)*len(seeds)*2, func(o ibcc.RunOpts) error {
				start := time.Now()
				pts, err := ibcc.RunDegradationOpts(base, ins, seeds, o)
				if err != nil {
					return err
				}
				ibcc.PrintDegradation(c.w, pts)
				if data, err = writeJSON(path, struct {
					Scenario string                  `json:"scenario"`
					Radix    int                     `json:"radix"`
					Seeds    []uint64                `json:"seeds"`
					Points   []ibcc.DegradationPoint `json:"points"`
				}{base.Name, base.Radix, seeds, pts}); err != nil {
					return err
				}
				fmt.Fprintf(c.w, "degradation: %d intensities x %d seeds x 2 CC legs in %v -> %s\n",
					len(ins), len(seeds), time.Since(start).Round(time.Millisecond), path)
				return nil
			})
			return data
		})
	}
}

// tournamentCmd is the backend tournament: every bracketed backend runs
// the scenario corpus across the fault-intensity grid, each cell is
// scored and ranked, and the table is printed and written as a JSON
// artifact (render it again later with cctinspect -tournament), which
// also goes into the run report.
func tournamentCmd(fs *flag.FlagSet, c *runConfig) func(string) error {
	intens := fs.String("intensities", "0,0.25,0.5,0.75,1", "comma-separated fault intensities in [0, 1]")
	return func(path string) error {
		ins, err := cliflag.Intensities("-intensities", *intens)
		if err != nil {
			return err
		}
		base, seeds, backends := c.base(), cliflag.Seeds(c.seed, c.seeds), c.bracket()
		return c.sweep(base.Name, ibcc.ReportTournament, func(sw *sweep) (data []byte) {
			sw.experiment("tournament", len(ibcc.DefaultTournamentCorpus())*len(ins)*len(seeds)*len(backends), func(o ibcc.RunOpts) error {
				start := time.Now()
				tab, err := ibcc.RunTournament(ibcc.TournamentConfig{
					Base: base, Backends: backends, Intensities: ins, Seeds: seeds, Opts: o,
				})
				if err != nil {
					return err
				}
				ibcc.PrintTournament(c.w, tab)
				if data, err = writeJSON(path, tab); err != nil {
					return err
				}
				fmt.Fprintf(c.w, "tournament: %d backends x %d shapes x %d intensities x %d seeds in %v -> %s\n",
					len(tab.Backends), len(tab.Corpus), len(ins), len(seeds),
					time.Since(start).Round(time.Millisecond), path)
				return nil
			})
			return data
		})
	}
}

// writeJSON writes v indented to path and returns the document (without
// the trailing newline) for the run report.
func writeJSON(path string, v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return data, os.WriteFile(path, append(data, '\n'), 0o644)
}

func diffKernelCmd(_ *flag.FlagSet, c *runConfig) func(string) error {
	return func(string) error { return runDiffKernel(c.w, c.base(), cliflag.Seeds(c.seed, c.seeds)) }
}

// runDiffKernel is the differential kernel validation: every Table II
// configuration of the base scenario, over the given seeds, runs on
// both event-list kernels (production timing wheel and reference binary
// heap) plus once more under the runtime invariant checker. Any
// trajectory divergence, invariant violation, or checker-induced
// perturbation is an error.
func runDiffKernel(w io.Writer, base ibcc.Scenario, seeds []uint64) error {
	start := time.Now()
	failures := 0
	for _, seed := range seeds {
		s0 := base
		s0.Seed = seed
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
			fmt.Fprintf(w, "%-40s seed %-3d digest %s  %8d records  %-6s\n",
				s.Name, s0.Seed, d.Wheel.Digest, d.Wheel.Records, status)
			fmt.Fprintf(w, "    check: %s\n", rep.Summary())
			if !d.Match() {
				for _, m := range d.Mismatches() {
					fmt.Fprintf(w, "    %s\n", m)
				}
			}
			for _, v := range rep.Violations {
				fmt.Fprintf(w, "    %s\n", v)
			}
		}
	}
	fmt.Fprintf(w, "diff-kernel: %d configurations x %d seeds in %v\n",
		4, len(seeds), time.Since(start).Round(time.Millisecond))
	if failures > 0 {
		return fmt.Errorf("diff-kernel: %d configuration(s) failed", failures)
	}
	fmt.Fprintln(w, "diff-kernel: wheel and reference-heap trajectories byte-identical, zero invariant violations")
	return nil
}

// stderrIsTTY reports whether stderr is a character device, gating the
// default for the live progress line.
func stderrIsTTY() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// Command paperbench regenerates every table and figure of the paper's
// evaluation section (Table II and figures 5–10), printing the same rows
// and series the paper reports, and runs the sweeps around them. An
// optional first word picks the command; without one it runs the
// experiments:
//
//	paperbench                         # every experiment at the paper's scale and windows
//	paperbench -exp fig8               # one experiment
//	paperbench -radix 12 -short        # a small fabric over 4 + 8 ms (smokes)
//	paperbench -jobs 8 -out results/   # 8 workers; persist + resume via JSON artifacts
//	paperbench -exp table2 -report run.json   # + the unified run report
//	paperbench scan -scan threshold -check    # checked CC parameter sensitivity scan
//	paperbench degradation -seeds 3 deg.json  # fault intensity x CC on/off
//	paperbench diff-kernel -seeds 2    # timing wheel vs reference heap
//	paperbench bench-kernel -baseline BENCH_kernel.json /tmp/fresh.json  # kernel benchmark + >10% gate
//	paperbench cct -threshold 3        # what a CC parameter set means
//	paperbench ckpt ckpts/             # the newest checkpoint's header, CRC-checked
//	paperbench report run.json         # validate and summarize a run report
//
// Every command accepts only the flags it reads (`paperbench <command>
// -h` lists them): a flag of another command is a usage error, never
// silently ignored. An output path goes after the flags.
//
// The sweep commands (experiments, scan, degradation) share
// one harness: -jobs workers with tables bit-identical to a serial run,
// a resumable -out artifact store, -check, -progress, -report, and a
// graceful SIGINT/SIGTERM drain that leaves a manifest in -out.
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
// flags and returns their check (nil = nothing to check), run after
// parsing, and its body.
type command struct {
	name   string // "" = the experiments, run when no word is given
	arg    string // its one positional argument ("" = none)
	flags  flagGroup
	about  string
	define func(fs *flag.FlagSet, c *runConfig) (check func() error, body func(arg string) error)
}

var commands = []command{
	{"", "", scenarioFlags | seedsFlag | ccFlag | sweepFlags | profileFlags,
		"Table II and figures 5-10", experimentsCmd},
	{"scan", "", scenarioFlags | sweepFlags | profileFlags,
		"CC parameter sensitivity scans against a shared CC-off baseline", scanCmd},
	{"degradation", "OUT.json", scenarioFlags | seedsFlag | ccFlag | sweepFlags | profileFlags,
		"fault intensity x CC on/off sweep; writes the curves as JSON", degradationCmd},
	{"diff-kernel", "", scenarioFlags | seedsFlag | ccFlag | profileFlags,
		"Table II corpus on both event-list kernels under the invariant checker", diffKernelCmd},
	{"bench-kernel", "OUT.json", profileFlags,
		"event-kernel + packet-lifecycle benchmark; writes BENCH_kernel.json", benchKernelCmd},
	{"cct", "", 0,
		"what a CC parameter set means: CCT rates, recovery timer, threshold weights", cctCmd},
	{"ckpt", "PATH", 0,
		"validate a checkpoint (or the newest in a directory) and print its header", ckptCmd},
	{"report", "PATH", 0,
		"validate a run report (written by -report) and print its summary", reportCmd},
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
	check, body := cmd.define(fs, c)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err // the flag package reported it
	}
	err := c.validate(cmd.flags)
	if err == nil && check != nil {
		err = check()
	}
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
	scenarioFlags flagGroup = 1 << iota // -radix -seed -short
	seedsFlag                           // -seeds
	ccFlag                              // -cc: the simulated backend
	sweepFlags                          // -jobs -out -progress -progress-jsonl -check -report
	profileFlags                        // -cpuprofile -memprofile
)

// runConfig is every flag the commands share, each defined once in
// register; base and sweep build what the commands run from it.
type runConfig struct {
	radix                  int
	seed                   uint64
	seeds                  int
	short                  bool
	cc                     string
	jobs                   int
	out                    string
	progress, progJSONL    bool
	check                  bool
	report                 string
	cpuProfile, memProfile string

	w io.Writer // tables, experiment lines and mode summaries
}

func (c *runConfig) register(fs *flag.FlagSet, g flagGroup) {
	if g&scenarioFlags != 0 {
		fs.IntVar(&c.radix, "radix", 36, "fat-tree crossbar radix (36 = the paper's 648 nodes)")
		fs.Uint64Var(&c.seed, "seed", 1, "random seed")
		fs.BoolVar(&c.short, "short", false, "short windows for smokes and tests: 4 ms warmup, 8 ms measure instead of the paper's 20 ms + 100 ms")
	}
	if g&seedsFlag != 0 {
		fs.IntVar(&c.seeds, "seeds", 1, "seeds per configuration, counting up from -seed (>1 adds Table II's confidence intervals)")
	}
	if g&ccFlag != 0 {
		fs.StringVar(&c.cc, "cc", "", "congestion control backend by registry name (empty = the default)")
	}
	if g&sweepFlags != 0 {
		fs.IntVar(&c.jobs, "jobs", 1, "simulation workers (0 = one per CPU)")
		fs.StringVar(&c.out, "out", "", "artifact directory: persist every result as JSON and resume from it, reporting an interrupted run's manifest")
		fs.BoolVar(&c.progress, "progress", stderrIsTTY(), "live progress line on stderr")
		fs.BoolVar(&c.progJSONL, "progress-jsonl", false, "machine-readable progress: one JSON line per completed simulation on stderr instead of the status line")
		fs.BoolVar(&c.check, "check", false, "run every simulation under the runtime invariant checker (fails on violations)")
		fs.StringVar(&c.report, "report", "", "write the unified run-report JSON artifact (sweep stats, telemetry aggregates, mode payload, kernel-bench trend) to this file")
	}
	if g&profileFlags != 0 {
		fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
		fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	}
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
	}
	if !ibcc.CCBackendKnown(c.cc) {
		errs = append(errs, fmt.Errorf("-cc: unknown backend %q (registered: %s)",
			c.cc, strings.Join(ibcc.CCBackends(), ", ")))
	}
	return errors.Join(errs...)
}

// base is the scenario every command derives its runs from.
func (c *runConfig) base() ibcc.Scenario {
	s := ibcc.DefaultScenario(c.radix)
	s.Seed = c.seed
	s.Backend = c.cc
	if !c.short {
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

	// What the run report reads: the in-sim telemetry hub and the
	// orchestration span tracker. Without -report both stay nil, which
	// RunOpts treats as off.
	hub   *ibcc.TelemetryHub
	spans *ibcc.SpanTracker
}

// sweep runs body in the harness — report sources, -out store, a
// context SIGINT/SIGTERM cancel — and ends with the run report of the
// given kind carrying body's payload.
func (c *runConfig) sweep(name, kind string, body func(sw *sweep) (payload []byte)) (err error) {
	sw := &sweep{runConfig: c, name: name}
	if c.report != "" {
		sw.hub, sw.spans = ibcc.NewTelemetryHub(0), ibcc.NewSpanTracker()
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
	return sw.writeReport(kind, payload)
}

// experiment runs one named batch of simulations — a figure, a scan,
// the degradation grid — with the options every command shares, then
// reports its cost from the progress counters. An interrupt flushes a
// resumable manifest next to the artifacts and the final telemetry
// snapshot into the report before failing.
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

// writeReport writes the unified run report from the current tracker
// and hub state (no-op without -report). kind is one of the
// ibcc.Report* constants; payload is the raw degradation curve JSON
// (nil for the experiments).
func (sw *sweep) writeReport(kind string, payload []byte) error {
	if sw.report == "" {
		return nil
	}
	st := sw.spans.Stats()
	snap := sw.hub.Snapshot()
	rep := &ibcc.RunReport{
		Schema:      ibcc.RunReportSchema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Kind:        kind,
		Name:        sw.name,
		Radix:       sw.radix,
		Seeds:       sw.seeds,
		Sweep:       &st,
		Telemetry:   &snap,
		Degradation: payload,
		Trend:       ibcc.LoadPerfTrend(".", st.EventsPerSec),
	}
	if err := rep.Write(sw.report); err != nil {
		return err
	}
	fmt.Fprintf(sw.w, "report : %s (%s, %d jobs, %.1fM events/s)\n",
		sw.report, kind, st.Done+st.Failed, st.EventsPerSec/1e6)
	return nil
}

// experimentsCmd is the default command: the rows of ibcc.Paper, run
// one experiment (-exp name) at a time.
func experimentsCmd(fs *flag.FlagSet, c *runConfig) (func() error, func(string) error) {
	var names []string
	for _, r := range ibcc.Paper(ibcc.Scenario{}, ibcc.PaperPValues()) {
		names = append(names, r.Exp)
	}
	names = slices.Compact(names)
	exp := fs.String("exp", "all", "experiment: "+strings.Join(names, ", ")+", all")
	pstep := fs.Int("pstep", 10, "p sweep step for figures 5-8")
	var rows []ibcc.PaperRow // the selected experiments' rows, set by check
	check := func() (err error) {
		if err := cliflag.Positive("-pstep", *pstep); err != nil {
			return err
		}
		if *exp != "all" && !slices.Contains(names, *exp) {
			return fmt.Errorf("-exp: unknown experiment %q", *exp)
		}
		var ps []int
		for p := 0; p <= 100; p += *pstep {
			ps = append(ps, p)
		}
		selected := func(ps []int) []ibcc.PaperRow {
			return slices.DeleteFunc(ibcc.Paper(c.base(), ps), func(r ibcc.PaperRow) bool { return *exp != "all" && r.Exp != *exp })
		}
		rows = selected(ps)
		// Set explicitly, -seeds and -pstep must change what a selected
		// experiment runs: Table II's confidence intervals, the windy
		// figures' p values.
		unread := map[string]bool{
			"seeds": core.ExperimentSims(rows, make([]uint64, 2)) == core.ExperimentSims(rows, nil),
			"pstep": len(selected(nil)) == len(rows),
		}
		fs.Visit(func(f *flag.Flag) {
			if unread[f.Name] {
				err = fmt.Errorf("-%s: -exp %s does not read it", f.Name, *exp)
			}
		})
		return err
	}
	return check, func(string) error {
		base, seeds := c.base(), cliflag.Seeds(c.seed, c.seeds)
		return c.timedSweep(base.Name, func(sw *sweep) {
			for _, name := range names {
				group := slices.DeleteFunc(slices.Clone(rows), func(r ibcc.PaperRow) bool { return r.Exp != name })
				if len(group) > 0 {
					sw.experiment(name, core.ExperimentSims(group, seeds), func(o ibcc.RunOpts) error {
						return core.RunExperiment(c.w, base, group, seeds, o)
					})
				}
			}
		})
	}
}

// timedSweep runs the experiments of body as one sweep, then prints its
// wall time.
func (c *runConfig) timedSweep(name string, body func(sw *sweep)) error {
	start := time.Now()
	err := c.sweep(name, ibcc.ReportExperiments, func(sw *sweep) []byte {
		body(sw)
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(c.w, "paperbench: done in %v\n", time.Since(start).Round(time.Second))
	return nil
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
func scanCmd(fs *flag.FlagSet, c *runConfig) (func() error, func(string) error) {
	which := fs.String("scan", "all", "threshold, timer, increase, markingrate, cctlimit, backlog, all")
	fracB := fs.Int("fracb", 0, "percent of B nodes")
	p := fs.Int("p", 0, "hotspot share of B nodes")
	check := func() error {
		if *which != "all" && !slices.ContainsFunc(scans, func(sc scan) bool { return sc.name == *which }) {
			return fmt.Errorf("-scan: unknown scan %q", *which)
		}
		return nil
	}
	return check, func(string) error {
		base := c.base()
		base.FracBPct = *fracB
		base.PPercent = *p
		return c.timedSweep(base.Name, func(sw *sweep) {
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
		})
	}
}

// degradationCmd is the graceful-degradation sweep: fault plans of
// increasing intensity are synthesized per (intensity, seed), each one
// runs with CC off and on, and the receive-rate / recovery curves are
// printed and written as a JSON artifact, which also goes into the run
// report. Intensity 0 is the unfaulted baseline (a zero plan is treated
// as absent), so the curve starts at the healthy operating point.
func degradationCmd(fs *flag.FlagSet, c *runConfig) (func() error, func(string) error) {
	var ins []float64
	return intensitiesFlag(fs, &ins), func(path string) error {
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

// intensitiesFlag defines -intensities; its check parses the list into
// *ins.
func intensitiesFlag(fs *flag.FlagSet, ins *[]float64) func() error {
	list := fs.String("intensities", "0,0.25,0.5,0.75,1", "comma-separated fault intensities in [0, 1]")
	return func() (err error) {
		*ins, err = cliflag.Intensities("-intensities", *list)
		return err
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

func diffKernelCmd(_ *flag.FlagSet, c *runConfig) (func() error, func(string) error) {
	return nil, func(string) error { return runDiffKernel(c.w, c.base(), cliflag.Seeds(c.seed, c.seeds)) }
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
			for _, m := range d.Mismatches() {
				fmt.Fprintf(w, "    %s\n", m)
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

// Command benchmark is the repository's end-to-end, layer-by-layer
// host-time benchmark over the paper's own experiments (README.md in
// this directory; declared in BENCHMARK.json at the repository root).
//
//	go run ./benchmark                            # all workloads, untraced
//	go run ./benchmark -trace both -out base.json # plus the per-layer ladder
//	go run ./benchmark -compare A.json B.json     # judge B against A
//
// It is a closed loop: one client runs one simulation at a time (the
// sweep workload: exactly two workers). A driver process spawns one
// child per workload and mode, sequentially, so each child's peak RSS
// is that workload's own.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	// Internal: the driver re-executes this binary as "child <job>" for
	// one workload in one mode.
	if len(args) == 2 && args[0] == "child" {
		if err := runChild(args[1], stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "", "comma-separated workload names (default: all)")
		seed    = fs.Uint64("seed", 1, "workload seed; reaches the simulator only as core.Scenario.Seed")
		reps    = fs.Int("reps", 0, "repetitions per workload (default: the workload's own count)")
		seconds = fs.Float64("seconds", 0, "stop repeating a workload once this much time has been measured (0: run all reps)")
		trace   = fs.String("trace", "0", "0: untraced end-to-end runs; 1: traced per-layer runs; both: untraced first, then traced")
		outPath = fs.String("out", "", "write the JSON result here (spans go beside it)")
		compare = fs.Bool("compare", false, "compare two -out files: benchmark -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	modes, ok := map[string][]bool{"0": {false}, "1": {true}, "both": {false, true}}[*trace]
	if !ok {
		return fail(fmt.Errorf("-trace must be 0, 1 or both"))
	}

	var selected []*workload
	if *names == "" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	}
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		w := findWorkload(name)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", name))
		}
		selected = append(selected, w)
	}

	// Spans go beside -out; without one they go to a temp directory
	// (nothing is written into the repository unless -out points there).
	job := childJob{Seed: *seed, Reps: *reps, Seconds: *seconds, TraceDir: filepath.Dir(*outPath)}
	if *outPath == "" && *trace != "0" {
		if job.TraceDir, err = os.MkdirTemp("", "ibcc-bench-trace-"); err != nil {
			return fail(err)
		}
	}
	res := result{Env: environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: *seed,
	}}
	fmt.Fprintf(stdout, "benchmark: nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d\n",
		res.Env.NProc, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.Commit, *seed)
	for _, traced := range modes {
		for _, w := range selected {
			job.Workload, job.Traced = w.name, traced
			wr, err := spawn(job, stderr)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", w.name, err))
			}
			for _, m := range sp.PerLayer {
				if _, ok := wr.PerLayer[m.Name]; wr.Traced && !ok {
					wr.PerLayer[m.Name] = metric{Unit: m.Unit, NA: true}
				}
			}
			wr.print(stdout, sp.why(w.name))
			res.Workloads = append(res.Workloads, *wr)
		}
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(&res, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	// One workload in one mode is the contract's unit of work: its
	// result object is the last line of standard output.
	if len(res.Workloads) == 1 {
		line, err := contractLine(sp, &res.Workloads[0])
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return 0
}

// childJob is what the driver hands a child process: one workload in
// one mode, as JSON in the child's one argument.
type childJob struct {
	Workload string
	Traced   bool
	Seed     uint64
	Reps     int
	Seconds  float64
	TraceDir string
}

// runChild runs one job in this process and prints its result as JSON.
func runChild(arg string, stdout io.Writer) error {
	var job childJob
	if err := json.Unmarshal([]byte(arg), &job); err != nil {
		return fmt.Errorf("child job: %w", err)
	}
	w := findWorkload(job.Workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", job.Workload)
	}
	res, err := runWorkload(w, job.Traced, runOpts{seed: job.Seed, reps: job.Reps, secs: job.Seconds, traceDir: job.TraceDir})
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// runWorkload runs one workload in one mode in this process.
func runWorkload(w *workload, traced bool, o runOpts) (*workloadResult, error) {
	switch {
	case w.sweep && traced:
		return runSweepTraced(w, o)
	case w.sweep:
		return runSweep(w, o)
	case traced:
		return runTraced(w, o)
	}
	return runSingle(w, o)
}

// spawn re-executes this binary as a child for one job and waits for it.
func spawn(job childJob, stderr io.Writer) (*workloadResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "child", string(arg))
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var wr workloadResult
	if err := json.Unmarshal(buf.Bytes(), &wr); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return &wr, nil
}

// commit is the VCS revision stamped into the binary, when there is one
// (go build in a git checkout; go run and bare source trees have none).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// contractLine renders one workload result as the benchmark contract's
// result object: every declared end-to-end metric for an untraced run,
// every declared per-layer metric for a traced one (0 where the
// workload has no path through that layer). A run whose operations all
// failed measured no end-to-end metric; it is reported as incorrect with
// its failed/attempted counts rather than as no result at all.
func contractLine(sp *spec, w *workloadResult) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	correct := w.Failed == 0 && w.Ops > 0
	if w.Traced {
		for _, m := range sp.PerLayer {
			metrics[m.Name] = value{w.PerLayer[m.Name].Value, m.Unit}
		}
	} else {
		for _, m := range sp.EndToEnd {
			if d, ok := w.EndToEnd[m.Name]; ok {
				metrics[m.Name] = value{d.Median, m.Unit}
			} else {
				correct = false
			}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, w.Ops, w.Failed, metrics})
}

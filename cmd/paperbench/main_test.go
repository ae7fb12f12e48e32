package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/ckpt"
	"repro/internal/cliflag"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// invoke runs one paperbench invocation in-process.
func invoke(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// A flag another command reads is a usage error, and so is a bad value
// of a command's own flag, an experiments flag that no selected
// experiment reads, or a removed flag: each exits 2 and nothing runs,
// so no artifact, report or output file appears. The first two cases
// are the invocations the single flag set used to accept and
// half-ignore; the cct cases are values that would loop forever, index
// outside the CCT or wrap through the parameter's integer type.
func TestFlagOfAnotherCommandIsAUsageError(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	const undefined = "flag provided but not defined"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-radix", "8", "-degradation", p("a.json")}, undefined},
		{[]string{"-diff-kernel", "-jobs", "3", "-out", p("d"), "-report", p("r.json")}, undefined},
		{[]string{"diff-kernel", "-jobs", "3", "-out", p("d"), "-report", p("r.json")}, undefined},
		{[]string{"scan", "-radix", "8", "-exp", "fig5"}, undefined},
		{[]string{"scan", "-seeds", "2"}, undefined},
		{[]string{"bench-kernel", "-radix", "8", p("b.json")}, undefined},
		{[]string{"-radix", "6", "-short", "-exp", "fig5,bogus", "-seeds", "3", "-out", p("d")}, `-exp: unknown experiment "bogus"`},
		{[]string{"-radix", "6", "-short", "-exp", "table2", "-pstep", "50", "-report", p("r.json")}, "-pstep: -exp table2 does not read it"},
		{[]string{"-radix", "6", "-short", "-exp", "fig9", "-pstep", "50"}, "-pstep: -exp fig9 does not read it"},
		{[]string{"-radix", "6", "-short", "-exp", "fig10,table2", "-pstep", "50"}, "-pstep: -exp fig10,table2 does not read it"},
		{[]string{"-seeds", "0", "-report", p("r.json")}, "-seeds"},
		{[]string{"-exp", "bogus", "-out", p("d")}, `-exp: unknown experiment "bogus"`},
		{[]string{"-pstep", "0"}, "-pstep"},
		{[]string{"scan", "-scan", "bogus", "-report", p("r.json")}, `-scan: unknown scan "bogus"`},
		{[]string{"degradation", "-radix", "8", "-short", p("a.json")}, `unknown command "degradation"`},
		{[]string{"tournament", "-radix", "8", "-short", p("b.json")}, `unknown command "tournament"`},
		{[]string{"-cc", "rcm", "-out", p("d")}, `-cc: unknown backend "rcm" (registered: ibcc, nocc, oracle)`},
		{[]string{"-cc", "ibcc,nocc", "-out", p("d")}, `-cc: unknown backend "ibcc,nocc" (registered: ibcc, nocc, oracle)`},
		{[]string{"bench-kernel", "-events", "0", p("b.json")}, "-events"},
		{[]string{"-serve", ":0"}, undefined + ": -serve"},
		{[]string{"-serve-probe"}, undefined + ": -serve-probe"},
		{[]string{"scan", "-serve", "127.0.0.1:0", "-report", p("r.json")}, undefined + ": -serve"},
		{[]string{"cct", "-every", "0"}, "-every must be >= 1, got 0"},
		{[]string{"cct", "-every", "-1"}, "-every must be >= 1, got -1"},
		{[]string{"cct", "-threshold", "271"}, "-threshold must be in [0, 15], got 271"},
		{[]string{"cct", "-limit", "200"}, "-limit must be in [0, 127], got 200"},
		{[]string{"cct", "-timer", "65536"}, "-timer must be in [0, 65535], got 65536"},
		{[]string{"cct", "-cpuprofile", p("cpu.out")}, undefined},
		{[]string{"cct", p("x")}, `unexpected argument`},
		{[]string{"ckpt", "-radix", "8", p("ck")}, undefined},
		{[]string{"ckpt"}, "ckpt takes one PATH argument"},
		{[]string{"report", p("r.json"), p("s.json")}, "report takes one PATH argument"},
	} {
		code, _, stderr := invoke(tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("paperbench %v: exit %d, want 2 and %q; stderr:\n%s", tc.args, code, tc.want, stderr)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) > 0 {
		t.Errorf("rejected invocations left %v behind", ents)
	}
	// A flag that some selected experiment reads is accepted.
	for _, args := range [][]string{
		{"-exp", "all", "-seeds", "3", "-pstep", "20"},
		{"-exp", "table2", "-seeds", "3"},
		{"-exp", "fig10", "-seeds", "2"},
		{"-exp", "fig8", "-pstep", "20"},
		{"-exp", "table2,fig8,fig9", "-pstep", "60", "-seeds", "3"},
	} {
		if _, _, err := parse(args, io.Discard, io.Discard); err != nil {
			t.Errorf("paperbench %v: %v", args, err)
		}
	}
}

// Every command runs end to end at radix 8 (the experiments at radix 6,
// and at radix 8 in TestTableIICIRowsFollowSeed). The scan runs
// checked: a violation would fail its sweep. ckpt reads a checkpoint
// the test writes, report the report Table II's sweep writes; a
// checkpoint with a flipped byte and a report of an unknown kind — the
// removed degradation kind among them — then fail with exit 1 and the
// error that names the fault.
func TestEveryCommandRunsAtRadix8(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	s := core.Default(8)
	s.Warmup, s.Measure = 200*sim.Microsecond, sim.Millisecond
	in, err := core.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.ExecuteWithCheckpoints(core.CkptOpts{Every: 500 * sim.Microsecond, Dir: p("ck"), Keep: 1}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"scan", "-radix", "8", "-short", "-scan", "increase", "-check"}, "best total at increase="},
		{[]string{"-radix", "6", "-short", "-exp", "table2", "-out", p("arts"), "-report", p("r.json")},
			"report : " + p("r.json") + " (experiments, 4 jobs"},
		{[]string{"diff-kernel", "-radix", "8", "-short"}, "zero invariant violations"},
		{[]string{"bench-kernel", "-events", "20000", p("bench.json")}, "wrote " + p("bench.json")},
		{[]string{"cct", "-threshold", "3"}, "-> weight  3: mark above  53248 B queued"},
		{[]string{"ckpt", p("ck")}, "scenario : " + s.Name + " — radix 8, seed 1, backend ibcc"},
		{[]string{"report", p("r.json")}, "kind experiments, scenario " + core.Default(6).Name + " radix 6 seeds 1"},
		// A report written before the run report lost its trend and
		// live-series keys (trend, live, live_done, active) still renders.
		{[]string{"report", filepath.Join("testdata", "report-before-trend-removal.json")}, "  sweep    : 4/4 jobs (0 failed, 0 cached)"},
	} {
		code, stdout, stderr := invoke(tc.args...)
		if code != 0 || !strings.Contains(stdout, tc.want) {
			t.Errorf("paperbench %v: exit %d, want %q in stdout:\n%s\nstderr:\n%s", tc.args, code, tc.want, stdout, stderr)
		}
	}
	for _, f := range []string{"r.json", "bench.json"} {
		if _, err := os.Stat(p(f)); err != nil {
			t.Error(err)
		}
	}

	ck, err := ckpt.Latest(p("ck"))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x40
	rep, err := os.ReadFile(p("r.json"))
	if err != nil {
		t.Fatal(err)
	}
	kind := func(k string) []byte {
		return bytes.Replace(rep, []byte(`"kind": "experiments"`), []byte(`"kind": "`+k+`"`), 1)
	}
	for _, tc := range []struct {
		file string
		data []byte
		cmd  string
		want string
	}{
		{"flipped.ckpt", blob, "ckpt", "(corrupt file)"},
		{"tournament.json", kind("tournament"), "report", `unknown kind "tournament"`},
		{"degradation.json", kind("degradation"), "report", `unknown kind "degradation"`},
	} {
		if err := os.WriteFile(p(tc.file), tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := invoke(tc.cmd, p(tc.file))
		if code != 1 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("paperbench %s %s: exit %d, want 1 and %q; stdout:\n%s\nstderr:\n%s", tc.cmd, tc.file, code, tc.want, stdout, stderr)
		}
	}
}

// The progress line goes to run's stderr writer: with -progress-jsonl
// one SweepStats object per finished simulation, the last at 4 of 4 and
// without the recent jobs; with -progress the status line. A sweep
// declares its whole size before its first run, so every line of the
// six-scan sweep reads its 40 simulations, not the scans begun so far:
// it is interrupted once the second scan's first simulation is in.
func TestProgressOnStderr(t *testing.T) {
	jsonl := func(args, lines []string, total int) (last telemetry.SweepStats) {
		t.Helper()
		for i, line := range lines {
			last = telemetry.SweepStats{}
			if err := json.Unmarshal([]byte(line), &last); err != nil {
				t.Fatalf("%v: stderr line %d is not SweepStats: %v: %q", args, i, err, line)
			}
			if last.Total != total || last.Done != i+1 {
				t.Fatalf("%v: stderr line %d reads %d of %d, want %d of %d", args, i, last.Done, last.Total, i+1, total)
			}
		}
		return last
	}
	args := []string{"-radix", "6", "-short", "-exp", "table2", "-progress-jsonl"}
	code, _, stderr := invoke(args...)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n")
	if last := jsonl(args, lines, 4); len(lines) != 4 || last.Recent != nil {
		t.Fatalf("%d lines, the last %+v", len(lines), last)
	}

	// The threshold scan is 9 simulations, its baseline and 8 values.
	args = []string{"scan", "-radix", "6", "-short", "-scan", "all", "-jobs", "1", "-progress-jsonl"}
	w := &interruptAfter{n: 10}
	_, body, err := parse(args, io.Discard, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := body(); err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("scan err = %v, want the interrupt", err)
	}
	if jsonl(args, w.lines, 40); len(w.lines) < w.n || len(w.lines) >= 40 {
		t.Fatalf("%v: %d lines before the interrupt, want %d to 39", args, len(w.lines), w.n)
	}

	code, _, stderr = invoke("-radix", "6", "-short", "-exp", "table2", "-progress")
	if code != 0 || !strings.Contains(stderr, "[4/4]") {
		t.Fatalf("-progress: exit %d, stderr %q", code, stderr)
	}
}

// interruptAfter is a progress writer that keeps the lines written to
// it and interrupts the process, as Ctrl-C would, when the n-th
// simulation finishes.
type interruptAfter struct {
	n     int
	lines []string
}

func (w *interruptAfter) Write(b []byte) (int, error) {
	w.lines = append(w.lines, strings.TrimSuffix(string(b), "\n"))
	if len(w.lines) == w.n {
		p, err := os.FindProcess(os.Getpid())
		if err == nil {
			err = p.Signal(os.Interrupt)
		}
		if err != nil {
			return 0, err
		}
	}
	return len(b), nil
}

// An interrupted -exp all sweep leaves its finished runs' artifacts and
// nothing else in -out, and its report counts the experiments that
// never started as pending: the total is every selected experiment's
// simulations, declared before the first ran. An interrupted scan
// without -out reports how far it got and says nothing was saved. A
// sweep served wholly from artifacts simulated nothing, so it reports
// no event rate.
func TestInterruptedSweepReportCountsUnstartedExperiments(t *testing.T) {
	dir, tmp := t.TempDir(), t.TempDir()
	report := func(path string) *telemetry.RunReport {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := telemetry.ValidateReport(data)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	interrupt := func(args ...string) (*runConfig, error) {
		t.Helper()
		c, body, err := parse(args, io.Discard, &interruptAfter{n: 1})
		if err != nil {
			t.Fatal(err)
		}
		err = body()
		if err == nil || !strings.Contains(err.Error(), "interrupted") {
			t.Fatalf("paperbench %v: err = %v, want the interrupt", args, err)
		}
		return c, err
	}

	c, err := interrupt("-radix", "6", "-short", "-pstep", "50", "-jobs", "1", "-progress-jsonl",
		"-out", dir, "-report", filepath.Join(tmp, "r.json"))
	st, serr := exp.NewStore(dir)
	if serr != nil {
		t.Fatal(serr)
	}
	if !strings.Contains(err.Error(), dir) {
		t.Errorf("interrupt error %q does not name %s", err, dir)
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json")); !os.IsNotExist(err) {
		t.Errorf("the interrupt left a MANIFEST.json: %v", err)
	}
	rows := core.Paper(c.base(), []int{0, 50, 100})
	table2 := slices.DeleteFunc(slices.Clone(rows), func(r core.PaperRow) bool { return r.Exp != "table2" })
	total := 2 * len(rows)
	rep := report(filepath.Join(tmp, "r.json"))
	if sw := rep.Sweep; rep.Kind != telemetry.ReportExperiments || sw.Total != total || sw.Done < 1 ||
		sw.Done != st.Len() || total-sw.Done <= total-2*len(table2) {
		t.Fatalf("report %s %+v with %d artifacts; want total %d, the experiments after table2 pending",
			rep.Kind, sw, st.Len(), total)
	}

	// The threshold scan is 9 simulations, its baseline and 8 values.
	_, err = interrupt("scan", "-radix", "6", "-short", "-scan", "threshold", "-jobs", "1",
		"-progress-jsonl", "-report", filepath.Join(tmp, "s-r.json"))
	rep = report(filepath.Join(tmp, "s-r.json"))
	if sw := rep.Sweep; rep.Kind != telemetry.ReportExperiments || sw.Done < 1 || sw.Done >= sw.Total || sw.Total != 9 {
		t.Errorf("interrupted scan report: kind %s, %d of %d", rep.Kind, sw.Done, sw.Total)
	}
	if want := fmt.Sprintf("interrupted after %d of 9 simulations — nothing was saved (no -out)", rep.Sweep.Done); err.Error() != want {
		t.Errorf("scan without -out: err %q, want %q", err, want)
	}

	cached := filepath.Join(tmp, "table2")
	for run := 0; run < 2; run++ {
		code, stdout, stderr := invoke("-radix", "6", "-short", "-exp", "table2", "-out", cached)
		if code != 0 {
			t.Fatalf("exit %d:\n%s", code, stderr)
		}
		if run == 1 && (!strings.Contains(stdout, "4 sims, 0 simulated events") ||
			!strings.Contains(stdout, "4 from artifacts") || strings.Contains(stdout, "events/s")) {
			t.Errorf("re-run over its own artifacts printed\n%s\nwant 0 simulated events, no rate, 4 from artifacts", stdout)
		}
	}
}

// Without flags the experiments run the paper: radix 36, 20 ms + 100 ms,
// Table I. -short keeps the default scenario's windows and nothing else.
func TestDefaultsAreThePaper(t *testing.T) {
	base := func(args ...string) core.Scenario {
		c, _, err := parse(args, io.Discard, io.Discard)
		if err != nil {
			t.Fatalf("paperbench %v: %v", args, err)
		}
		return c.base()
	}
	s := base()
	if s.Radix != 36 || s.Warmup != 20*sim.Millisecond || s.Measure != 100*sim.Millisecond ||
		!reflect.DeepEqual(s.CC, cc.PaperParams()) {
		t.Errorf("default scenario: radix %d, %v + %v, CC %+v", s.Radix, s.Warmup, s.Measure, s.CC)
	}
	short, def := base("-short"), core.Default(36)
	if !reflect.DeepEqual(short, def) {
		t.Errorf("-short scenario:\n%+v\nwant the default scenario\n%+v", short, def)
	}
}

// -seeds runs every row over the seeds counting up from -seed, like
// every other multi-seed mode: Table II at -seed 5 -seeds 2 prints the
// records of its rows run at seeds 5 and 6, means with their CIs.
func TestTableIICIRowsFollowSeed(t *testing.T) {
	code, stdout, stderr := invoke("-radix", "8", "-short", "-exp", "table2", "-seed", "5", "-seeds", "2")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	s := core.Default(8)
	s.Seed = 99 // RunPairs sets every run's seed
	rows := slices.DeleteFunc(core.Paper(s, nil), func(r core.PaperRow) bool { return r.Exp != "table2" })
	recs, err := core.RunPairs(rows, []uint64{5, 6}, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	core.PrintPaper(&want, core.Records(recs))
	if !strings.Contains(stdout, want.String()) || !strings.Contains(want.String(), " ±") {
		t.Fatalf("Table II is not its rows over seeds {5, 6}; want\n%s\nin\n%s", want.String(), stdout)
	}
}

// The report's records are the printed tables' numbers, and they do not
// depend on the worker count or on the run: -jobs 1, -jobs 0 and a
// second -jobs 0 run write identical records, each of which reads "not
// comparable" at radix 6 with the short windows.
func TestReportRecordsAreDeterministic(t *testing.T) {
	dir := t.TempDir()
	var first []telemetry.Record
	for i, jobs := range []string{"1", "0", "0"} {
		path := filepath.Join(dir, fmt.Sprintf("r%d.json", i))
		code, _, stderr := invoke("-radix", "6", "-short", "-exp", "table2,fig8", "-pstep", "100", "-seeds", "2",
			"-jobs", jobs, "-report", path)
		if code != 0 {
			t.Fatalf("exit %d:\n%s", code, stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := telemetry.ValidateReport(data)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = rep.Records
			continue
		}
		if !reflect.DeepEqual(rep.Records, first) {
			t.Fatalf("-jobs %s run %d: records differ from the -jobs 1 run's", jobs, i)
		}
	}
	// table2: all nodes; hotspots, non-hotspots, total. fig8 at p = 0
	// and 100: non-hotspots, tmax, hotspots, total.
	if len(first) != 12 {
		t.Fatalf("%d records, want 12", len(first))
	}
	for _, rec := range first {
		if len(rec.Seeds) != 2 || rec.Paper != nil && !strings.HasPrefix(rec.Paper.Verdict, "not comparable: radix 6") {
			t.Errorf("record %+v", rec)
		}
	}
}

// Every literal paperbench invocation the docs, the Makefile, the
// scripts, the verify skill and the package doc show parses against the
// command table.
func TestDocumentedInvocationsParse(t *testing.T) {
	invs, err := cliflag.Documented(filepath.Join("..", ".."), "paperbench")
	if err != nil {
		t.Fatal(err)
	}
	for _, inv := range invs {
		if len(inv.Args) == 1 && slices.ContainsFunc(commands, func(c command) bool { return c.name == inv.Args[0] }) {
			continue // names a command rather than running it
		}
		var stderr bytes.Buffer
		if _, _, err := parse(inv.Args, io.Discard, &stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
			first, _, _ := strings.Cut(stderr.String(), "\n")
			t.Errorf("%s:%d: paperbench %s: %s", inv.File, inv.Line, strings.Join(inv.Args, " "), first)
		}
	}
	if len(invs) < 40 {
		t.Fatalf("only %d invocations found; is the extraction broken?", len(invs))
	}
	t.Logf("%d invocations checked", len(invs))
}

var (
	experimentWall = regexp.MustCompile(`(?m)^(experiment [^:]+: \d+ sims, \d+ simulated events), \S+ wall(?: \([\d.]+M events/s\))?`)
	doneWall       = regexp.MustCompile(`(?m)^paperbench: done in .*$`)
)

// maskWall blanks what depends on the host: each experiment line's wall
// clock and events per second, and the closing "done in" line.
func maskWall(stdout string) string {
	stdout = experimentWall.ReplaceAllString(stdout, "$1, <wall>")
	return doneWall.ReplaceAllString(stdout, "paperbench: done in <wall>")
}

const experimentsGolden = "testdata/experiments.golden"

// The experiments print exactly the tables in testdata/experiments.golden
// at radix 6 with the short windows, wall clocks masked: Table II (over
// one seed and over two) and figures 5-8 at p = 0, 50, 100. Figures 9
// and 10 stretch their windows to six hotspot lifetimes, too slow for
// this suite; core's TestPaperScenariosGolden pins what they submit.
func TestExperimentsStdoutGolden(t *testing.T) {
	var got strings.Builder
	for _, args := range [][]string{
		{"-radix", "6", "-short", "-exp", "table2"},
		{"-radix", "6", "-short", "-pstep", "50", "-exp", "fig5"},
		{"-radix", "6", "-short", "-pstep", "50", "-exp", "fig6"},
		{"-radix", "6", "-short", "-pstep", "50", "-exp", "fig7"},
		{"-radix", "6", "-short", "-pstep", "50", "-exp", "fig8"},
		{"-radix", "6", "-short", "-exp", "table2", "-seeds", "2"},
	} {
		code, stdout, stderr := invoke(append(args, "-jobs", "0")...)
		if code != 0 {
			t.Fatalf("paperbench %v: exit %d:\n%s", args, code, stderr)
		}
		got.WriteString("$ paperbench " + strings.Join(args, " ") + "\n" + maskWall(stdout))
	}
	want, err := os.ReadFile(experimentsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("stdout differs from %s; got\n%s", experimentsGolden, got.String())
	}
}

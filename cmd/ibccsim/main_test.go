package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cliflag"
)

// binary builds ibccsim into the test's temp directory.
func binary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ibccsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

var (
	engineLine = regexp.MustCompile(`engine   : (\d+) events`)
	ratesLine  = regexp.MustCompile(`(?m)^rates    : .*$`)
)

// outcome extracts what a run must reproduce: the executed event count
// and the rates line.
func outcome(t *testing.T, out []byte) (events, rates string) {
	t.Helper()
	m := engineLine.FindSubmatch(out)
	r := ratesLine.Find(out)
	if m == nil || r == nil {
		t.Fatalf("no engine/rates line in:\n%s", out)
	}
	return string(m[1]), string(r)
}

// TestTraceComposes: -trace is a view of a bus-fed sampler, so the
// traced run executes exactly the bare run's events, composes with
// -ckpt-every, and its checkpoints resume to the same outcome. The CSV
// carries every series, the per-bin CCTI increases and decreases too.
func TestTraceComposes(t *testing.T) {
	bin := binary(t)
	dir := t.TempDir()
	scenario := []string{"-radix", "8", "-fracb", "100", "-p", "60", "-warmup", "1ms", "-measure", "2ms"}
	run := func(extra ...string) []byte {
		t.Helper()
		out, err := exec.Command(bin, append(extra, scenario...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("ibccsim %v: %v\n%s", extra, err, out)
		}
		return out
	}

	bareEvents, bareRates := outcome(t, run())
	csv, ck := filepath.Join(dir, "t.csv"), filepath.Join(dir, "ck")
	events, rates := outcome(t, run("-trace", csv, "-ckpt-every", "1ms", "-ckpt-dir", ck))
	if events != bareEvents || rates != bareRates {
		t.Fatalf("traced run: %s events, %s\nbare run:   %s events, %s", events, rates, bareEvents, bareRates)
	}
	table, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	const header = "time_s,hotspot_gbps,other_gbps,control_gbps,queued_kb,max_port_kb," +
		"throttled,max_ccti,mean_ccti,ccti_incr,ccti_decr,drops,stalls"
	lines := strings.Split(strings.TrimSpace(string(table)), "\n")
	if lines[0] != header || len(lines) != 1+30 {
		t.Fatalf("3 ms at the default 100 µs cadence wrote %d lines, header %q", len(lines), lines[0])
	}
	events, rates = outcome(t, run("-resume-from", ck))
	if events != bareEvents || rates != bareRates {
		t.Fatalf("resumed run: %s events, %s\nbare run:    %s events, %s", events, rates, bareEvents, bareRates)
	}
}

// TestResumeReportsTheRestoredRun: a resumed run describes the scenario
// its checkpoint carries — not the flag defaults of the resuming command
// line — so apart from the resume line and the engine line's rate its
// report is the uninterrupted run's, line for line. The checker rides
// both the checkpointing and the resumed run, whether or not the run
// that wrote the checkpoint was audited.
func TestResumeReportsTheRestoredRun(t *testing.T) {
	bin := binary(t)
	scenario := []string{"-radix", "8", "-fracb", "100", "-p", "60", "-warmup", "1ms", "-measure", "2ms"}
	run := func(args ...string) []string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("ibccsim %v: %v\n%s", args, err, out)
		}
		var report []string
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			switch {
			case strings.HasPrefix(line, "ckpt "), strings.HasPrefix(line, "resume "):
			case strings.HasPrefix(line, "engine "):
				report = append(report, engineLine.FindString(line))
			case strings.HasPrefix(line, "check "):
				if !strings.HasPrefix(line, "check    : clean (") {
					t.Fatalf("ibccsim %v: %s", args, line)
				}
			default:
				report = append(report, line)
			}
		}
		return report
	}
	want := strings.Join(run(scenario...), "\n")
	if !strings.Contains(want, "12 switches") || !strings.Contains(want, "p=60%") {
		t.Fatalf("uninterrupted report does not describe the scenario:\n%s", want)
	}
	for _, writerFlags := range [][]string{{"-check"}, nil} {
		ck := filepath.Join(t.TempDir(), "ck")
		writer := append(append([]string{"-ckpt-every", "1ms", "-ckpt-dir", ck}, writerFlags...), scenario...)
		if got := strings.Join(run(writer...), "\n"); got != want {
			t.Errorf("checkpointing run %v:\n%s\nuninterrupted:\n%s", writerFlags, got, want)
		}
		if got := strings.Join(run("-resume-from", ck, "-check"), "\n"); got != want {
			t.Errorf("resumed run (writer flags %v):\n%s\nuninterrupted:\n%s", writerFlags, got, want)
		}
	}
}

// TestTraceIntervalValidated: a non-positive -traceint, or one that
// cuts the run into more than telemetry.MaxBins bins for -trace or
// -telemetry, ends in one line on stderr and a non-zero exit before
// anything is simulated.
func TestTraceIntervalValidated(t *testing.T) {
	bin := binary(t)
	csv := filepath.Join(t.TempDir(), "t.csv")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-traceint", "0"}, "-traceint must be > 0"},
		{[]string{"-trace", csv, "-traceint=-1us"}, "-traceint must be > 0"},
		{[]string{"-trace", csv, "-traceint", "1ns", "-warmup", "1ms", "-measure", "2ms"}, "use 12ns or more"},
		{[]string{"-telemetry", "-traceint", "1ns", "-warmup", "1ms", "-measure", "2ms"}, "use 12ns or more"},
	} {
		refused(t, bin, tc.args, tc.want)
	}
	if _, err := os.Stat(csv); err == nil {
		t.Error("a rejected run left a trace file behind")
	}
}

// TestUnreadFlagRefused: a flag set on the command line that the run
// would not read is refused like a bad value, never silently ignored.
func TestUnreadFlagRefused(t *testing.T) {
	bin := binary(t)
	dir := filepath.Join(t.TempDir(), "ck")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-jobs", "4"}, "-jobs spreads -seeds runs"},
		{[]string{"-ckpt-dir", dir}, "add -ckpt-every"},
		{[]string{"-ckpt-keep", "2"}, "add -ckpt-every"},
		{[]string{"-q", "-telemetry"}, "-q prints only the summary line"},
		{[]string{"-traceint", "10us"}, "-traceint is the bin width of -trace and -telemetry"},
	} {
		refused(t, bin, tc.args, tc.want)
	}
	if _, err := os.Stat(dir); err == nil {
		t.Error("a rejected run made its checkpoint directory")
	}
}

// refused runs ibccsim -radix 8 with args and requires one line on
// stderr containing want, a non-zero exit and nothing simulated.
func refused(t *testing.T, bin string, args []string, want string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-radix", "8"}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("%v: err = %v, want a non-zero exit", args, err)
	}
	msg := stderr.String()
	if strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "ibccsim: ") || !strings.Contains(msg, want) {
		t.Errorf("%v: stderr = %q, want one line containing %q", args, msg, want)
	}
	if stdout.Len() != 0 {
		t.Errorf("%v: simulated before rejecting the flag:\n%s", args, stdout.String())
	}
}

// TestRemovedFlagIsAUsageError: -chrome-trace is gone (the -events JSONL
// log carries every event field), so naming it exits 2 before anything
// is simulated or written.
func TestRemovedFlagIsAUsageError(t *testing.T) {
	bin := binary(t)
	out := filepath.Join(t.TempDir(), "f")
	cmd := exec.Command(bin, "-radix", "8", "-chrome-trace", out)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if e, ok := err.(*exec.ExitError); !ok || e.ExitCode() != 2 {
		t.Fatalf("err = %v, want exit 2", err)
	}
	if msg := stderr.String(); !strings.HasPrefix(msg, "flag provided but not defined: -chrome-trace") {
		t.Errorf("stderr = %q", msg)
	}
	if stdout.Len() != 0 {
		t.Errorf("simulated before rejecting the flag:\n%s", stdout.String())
	}
	if _, err := os.Stat(out); err == nil {
		t.Error("a rejected run left a file behind")
	}
}

// Every literal ibccsim invocation the docs, the Makefile, the scripts,
// the verify skill and the package doc show parses against ibccsim's
// flags.
func TestDocumentedInvocationsParse(t *testing.T) {
	invs, err := cliflag.Documented(filepath.Join("..", ".."), "ibccsim")
	if err != nil {
		t.Fatal(err)
	}
	for _, inv := range invs {
		fs, _ := newFlagSet(flag.ContinueOnError)
		var stderr bytes.Buffer
		fs.SetOutput(&stderr)
		if err := fs.Parse(inv.Args); err != nil {
			t.Errorf("%s:%d: ibccsim %s: %v", inv.File, inv.Line, strings.Join(inv.Args, " "), err)
		} else if fs.NArg() > 0 {
			t.Errorf("%s:%d: ibccsim %s: unexpected argument %q", inv.File, inv.Line, strings.Join(inv.Args, " "), fs.Arg(0))
		}
	}
	if len(invs) < 20 {
		t.Fatalf("only %d invocations found; is the extraction broken?", len(invs))
	}
	t.Logf("%d invocations checked", len(invs))
}

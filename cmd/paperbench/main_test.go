package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	ibcc "repro"
)

// invoke runs one paperbench invocation in-process.
func invoke(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// A flag another command reads is a usage error, and nothing runs: no
// artifact, report or output file appears. The first two cases are the
// invocations the single flag set used to accept and half-ignore.
func TestFlagOfAnotherCommandIsAUsageError(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	for _, args := range [][]string{
		{"-radix", "8", "-degradation", p("a.json"), "-tournament", p("b.json")},
		{"-diff-kernel", "-jobs", "3", "-out", p("d"), "-report", p("r.json"), "-serve", "127.0.0.1:0"},
		{"diff-kernel", "-jobs", "3", "-out", p("d"), "-report", p("r.json"), "-serve", "127.0.0.1:0"},
		{"degradation", "-radix", "8", "-tournament", p("b.json"), p("a.json")},
		{"scan", "-seeds", "2"},
		{"bench-kernel", "-radix", "8", p("b.json")},
	} {
		code, _, stderr := invoke(args...)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("paperbench %v: exit %d, stderr:\n%s", args, code, stderr)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) > 0 {
		t.Errorf("rejected invocations left %v behind", ents)
	}
}

// Every command runs end to end at radix 8 (the experiments in
// TestTableIICIRowsFollowSeed). The scan runs checked: a violation
// would fail its sweep.
func TestEveryCommandRunsAtRadix8(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"scan", "-radix", "8", "-scan", "increase", "-check"}, "best total at increase="},
		{[]string{"degradation", "-radix", "8", "-intensities", "0", "-out", p("arts"),
			"-serve", "127.0.0.1:0", "-serve-probe", "-report", p("r.json"), p("deg.json")}, "serve-probe: /metrics.json ok"},
		{[]string{"tournament", "-radix", "8", "-cc", "nocc", "-intensities", "0", p("tour.json")}, "experiment tournament: 4 sims"},
		{[]string{"diff-kernel", "-radix", "8"}, "zero invariant violations"},
		{[]string{"bench-kernel", "-events", "20000", p("bench.json")}, "wrote " + p("bench.json")},
	} {
		code, stdout, stderr := invoke(tc.args...)
		if code != 0 || !strings.Contains(stdout, tc.want) {
			t.Errorf("paperbench %v: exit %d, want %q in stdout:\n%s\nstderr:\n%s", tc.args, code, tc.want, stdout, stderr)
		}
	}
	for _, f := range []string{"r.json", "deg.json", "tour.json", "bench.json"} {
		if _, err := os.Stat(p(f)); err != nil {
			t.Error(err)
		}
	}
}

// Table II's confidence-interval rows run the -seeds list counting up
// from -seed, like every other multi-seed mode.
func TestTableIICIRowsFollowSeed(t *testing.T) {
	code, stdout, stderr := invoke("-radix", "8", "-exp", "table2", "-seed", "5", "-seeds", "2")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	var want bytes.Buffer
	for _, ccOn := range []bool{false, true} {
		s := ibcc.DefaultScenario(8)
		s.Seed = 5
		s.CCOn = ccOn
		m, err := ibcc.RunSeedsOpts(s, []uint64{5, 6}, ibcc.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		label := "Table II hotspot scenario, CC off"
		if ccOn {
			label = "Table II hotspot scenario, CC on"
		}
		m.Print(&want, label)
	}
	if !strings.Contains(stdout, want.String()) {
		t.Fatalf("CI rows are not RunSeedsOpts on seeds {5, 6}; want\n%s\nin\n%s", want.String(), stdout)
	}
}

// invocation matches a line that runs paperbench — `go run
// ./cmd/paperbench`, a binary path, or the bare name first — and
// captures its arguments up to the first shell operator or comment.
var invocation = regexp.MustCompile(`^(?:.*\brun\s+\S*/|\s*(?:\.?/(?:\S*/)?)?)paperbench((?:\s+[^\s|&;<>#)]+)*)(?:[\s|&;<>#)]|$)`)

var codeSpan = regexp.MustCompile("`([^`]+)`")

// Every literal paperbench invocation the docs, the Makefile, the
// scripts and the verify skill show parses against the command table.
// Markdown contributes its fenced code lines and its inline code spans;
// other files every line; `\` continuations are joined, and lines whose
// arguments use shell variables are skipped.
func TestDocumentedInvocationsParse(t *testing.T) {
	root := filepath.Join("..", "..")
	files := []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "Makefile",
		filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	scripts, _ := filepath.Glob(filepath.Join(root, "scripts", "*.sh"))
	for _, s := range scripts {
		files = append(files, strings.TrimPrefix(s, root+string(filepath.Separator)))
	}
	checked := 0
	for _, name := range files {
		for _, cand := range codeLines(t, filepath.Join(root, name)) {
			m := invocation.FindStringSubmatch(cand.text)
			if m == nil || strings.Contains(m[1], "$") {
				continue
			}
			args := strings.Fields(m[1])
			for i, a := range args {
				args[i] = strings.Trim(a, `"'`)
			}
			checked++
			if len(args) == 1 && slices.ContainsFunc(commands, func(c command) bool { return c.name == args[0] }) {
				continue // names a command rather than running it
			}
			var stderr bytes.Buffer
			if _, _, err := parse(args, io.Discard, &stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
				first, _, _ := strings.Cut(stderr.String(), "\n")
				t.Errorf("%s:%d: paperbench%s: %s", name, cand.line, m[1], first)
			}
		}
	}
	if checked < 40 {
		t.Fatalf("only %d invocations found; is the extraction broken?", checked)
	}
	t.Logf("%d invocations checked", checked)
}

type codeLine struct {
	line int
	text string
}

// codeLines returns a file's code: every line (continuations joined),
// or for Markdown its fenced lines and, per prose paragraph, its inline
// code spans.
func codeLines(t *testing.T, path string) []codeLine {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	md := strings.HasSuffix(path, ".md")
	var out []codeLine
	var para strings.Builder
	paraLine, fenced := 0, false
	flush := func() {
		for _, span := range codeSpan.FindAllStringSubmatch(para.String(), -1) {
			out = append(out, codeLine{paraLine, span[1]})
		}
		para.Reset()
	}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		text, start := sc.Text(), n
		for strings.HasSuffix(text, `\`) && sc.Scan() {
			text = strings.TrimSuffix(text, `\`) + " " + sc.Text()
			n++
		}
		switch {
		case !md:
			out = append(out, codeLine{start, text})
		case strings.HasPrefix(strings.TrimSpace(text), "```"):
			flush()
			fenced = !fenced
		case fenced:
			out = append(out, codeLine{start, text})
		case strings.TrimSpace(text) == "":
			flush()
		default:
			if para.Len() == 0 {
				paraLine = start
			}
			para.WriteString(text + " ")
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

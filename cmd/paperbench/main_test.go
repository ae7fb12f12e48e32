package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
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

// A flag another command reads is a usage error, and so is a bad value
// of a command's own flag, or an experiments flag that no selected
// experiment reads: each exits 2 and nothing runs, so no artifact,
// report or output file appears. The first two cases are the
// invocations the single flag set used to accept and half-ignore.
func TestFlagOfAnotherCommandIsAUsageError(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	const undefined = "flag provided but not defined"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-radix", "8", "-degradation", p("a.json")}, undefined},
		{[]string{"-diff-kernel", "-jobs", "3", "-out", p("d"), "-report", p("r.json"), "-serve", "127.0.0.1:0"}, undefined},
		{[]string{"diff-kernel", "-jobs", "3", "-out", p("d"), "-report", p("r.json"), "-serve", "127.0.0.1:0"}, undefined},
		{[]string{"degradation", "-radix", "8", "-exp", "fig5", p("a.json")}, undefined},
		{[]string{"scan", "-seeds", "2"}, undefined},
		{[]string{"bench-kernel", "-radix", "8", p("b.json")}, undefined},
		{[]string{"-radix", "6", "-short", "-exp", "fig5", "-pstep", "100", "-seeds", "3", "-out", p("d")}, "-seeds: -exp fig5 does not read it"},
		{[]string{"-radix", "6", "-short", "-exp", "table2", "-pstep", "50", "-report", p("r.json")}, "-pstep: -exp table2 does not read it"},
		{[]string{"-radix", "6", "-short", "-exp", "fig9", "-pstep", "50"}, "-pstep: -exp fig9 does not read it"},
		{[]string{"-radix", "6", "-short", "-exp", "fig10", "-seeds", "2"}, "-seeds: -exp fig10 does not read it"},
		{[]string{"-exp", "bogus", "-out", p("d")}, `-exp: unknown experiment "bogus"`},
		{[]string{"-pstep", "0"}, "-pstep"},
		{[]string{"scan", "-scan", "bogus", "-report", p("r.json")}, `-scan: unknown scan "bogus"`},
		{[]string{"degradation", "-intensities", "2", p("a.json")}, "-intensities"},
		{[]string{"tournament", "-radix", "8", "-short", p("b.json")}, `unknown command "tournament"`},
		{[]string{"-cc", "rcm", "-out", p("d")}, `-cc: unknown backend "rcm" (registered: ibcc, nocc, oracle)`},
		{[]string{"degradation", "-cc", "ibcc,nocc", p("a.json")}, `-cc: unknown backend "ibcc,nocc" (registered: ibcc, nocc, oracle)`},
		{[]string{"bench-kernel", "-events", "0", p("b.json")}, "-events"},
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
		{"-exp", "fig8", "-pstep", "20"},
	} {
		if _, _, err := parse(args, io.Discard, io.Discard); err != nil {
			t.Errorf("paperbench %v: %v", args, err)
		}
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
		{[]string{"scan", "-radix", "8", "-short", "-scan", "increase", "-check"}, "best total at increase="},
		{[]string{"degradation", "-radix", "8", "-short", "-intensities", "0", "-out", p("arts"),
			"-serve", "127.0.0.1:0", "-serve-probe", "-report", p("r.json"), p("deg.json")}, "serve-probe: /metrics.json ok"},
		{[]string{"diff-kernel", "-radix", "8", "-short"}, "zero invariant violations"},
		{[]string{"bench-kernel", "-events", "20000", p("bench.json")}, "wrote " + p("bench.json")},
	} {
		code, stdout, stderr := invoke(tc.args...)
		if code != 0 || !strings.Contains(stdout, tc.want) {
			t.Errorf("paperbench %v: exit %d, want %q in stdout:\n%s\nstderr:\n%s", tc.args, code, tc.want, stdout, stderr)
		}
	}
	for _, f := range []string{"r.json", "deg.json", "bench.json"} {
		if _, err := os.Stat(p(f)); err != nil {
			t.Error(err)
		}
	}
}

// Without flags the experiments run the paper: radix 36, 20 ms + 100 ms,
// Table I. -short keeps the default scenario's windows and nothing else.
func TestDefaultsAreThePaper(t *testing.T) {
	base := func(args ...string) ibcc.Scenario {
		c, _, err := parse(args, io.Discard, io.Discard)
		if err != nil {
			t.Fatalf("paperbench %v: %v", args, err)
		}
		return c.base()
	}
	s := base()
	if s.Radix != 36 || s.Warmup != 20*ibcc.Millisecond || s.Measure != 100*ibcc.Millisecond ||
		!reflect.DeepEqual(s.CC, ibcc.PaperCCParams()) {
		t.Errorf("default scenario: radix %d, %v + %v, CC %+v", s.Radix, s.Warmup, s.Measure, s.CC)
	}
	short, def := base("-short"), ibcc.DefaultScenario(36)
	if !reflect.DeepEqual(short, def) {
		t.Errorf("-short scenario:\n%+v\nwant the default scenario\n%+v", short, def)
	}
}

// Table II's confidence-interval rows run the -seeds list counting up
// from -seed, like every other multi-seed mode.
func TestTableIICIRowsFollowSeed(t *testing.T) {
	code, stdout, stderr := invoke("-radix", "8", "-short", "-exp", "table2", "-seed", "5", "-seeds", "2")
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
// ./cmd/paperbench`, a binary path (quoted in scripts), or the bare
// name first — and captures its arguments up to the first shell
// operator or comment.
var invocation = regexp.MustCompile(`^(?:.*\brun\s+\S*/|\s*(?:"\S*/|\.?/(?:\S*/)?)?)paperbench"?((?:\s+[^\s|&;<>#)]+)*)(?:[\s|&;<>#)]|$)`)

var codeSpan = regexp.MustCompile("`([^`]+)`")

// Every literal paperbench invocation the docs, the Makefile, the
// scripts and the verify skill show parses against the command table.
// Markdown contributes its fenced code lines and its inline code spans;
// other files every line; `\` continuations are joined. In scripts, a
// variable assigned a literal string (SWEEP="-radix 8 …") is expanded
// and any other one ("$T/full") stands for a path; elsewhere, lines
// whose arguments use variables are skipped.
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
		lines := codeLines(t, filepath.Join(root, name))
		if strings.HasSuffix(name, ".sh") {
			lines = expandShell(lines)
		}
		for _, cand := range lines {
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

var (
	shellAssign = regexp.MustCompile(`^\s*(\w+)="([^"$]*)"\s*$`)
	shellVar    = regexp.MustCompile(`\$\{?(\w+)\}?`)
)

// expandShell replaces, in a script's lines, each variable assigned a
// literal string on an earlier line by that string, and any other
// variable by its bare name.
func expandShell(lines []codeLine) []codeLine {
	vars := map[string]string{}
	for i, l := range lines {
		if m := shellAssign.FindStringSubmatch(l.text); m != nil {
			vars[m[1]] = m[2]
		}
		lines[i].text = shellVar.ReplaceAllStringFunc(l.text, func(v string) string {
			name := shellVar.FindStringSubmatch(v)[1]
			if val, ok := vars[name]; ok {
				return val
			}
			return name
		})
	}
	return lines
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
// at radix 6 with the short windows, wall clocks masked: Table II (with
// and without its CI rows) and figures 5-8 at p = 0, 50, 100. Figures 9
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

package cliflag

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// Invocation is one documented command line: where it is written and
// the arguments after the command's name.
type Invocation struct {
	File string
	Line int
	Args []string
}

// Documented returns every literal invocation of the command prog in
// the repository at root: README, EXPERIMENTS, DESIGN, the Makefile,
// scripts/*.sh, the verify skill and the commands' package docs. A line
// runs prog when it is `go run ./cmd/prog`, a path ending in /prog
// (quoted in scripts) or the bare name first; its arguments end at the
// first shell operator or comment, and one that uses a variable is
// left out. In scripts a variable assigned a literal string (SWEEP="-radix
// 8 …") is expanded first and any other one ("$T/full") stands for a path.
func Documented(root, prog string) ([]Invocation, error) {
	files := []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "Makefile",
		filepath.Join(".claude", "skills", "verify", "SKILL.md"),
		filepath.Join("cmd", "ibccsim", "main.go"), filepath.Join("cmd", "paperbench", "main.go")}
	scripts, err := filepath.Glob(filepath.Join(root, "scripts", "*.sh"))
	if err != nil {
		return nil, err
	}
	for _, s := range scripts {
		files = append(files, strings.TrimPrefix(s, root+string(filepath.Separator)))
	}
	run := regexp.MustCompile(`^(?:.*\brun\s+\S*/|\s*(?:"\S*/|\.?/(?:\S*/)?)?)` + regexp.QuoteMeta(prog) +
		`"?((?:\s+[^\s|&;<>#)]+)*)(?:[\s|&;<>#)]|$)`)
	var out []Invocation
	for _, name := range files {
		lines, err := codeLines(filepath.Join(root, name))
		if err != nil {
			return nil, err
		}
		vars := map[string]string{}
		for _, l := range lines {
			if strings.HasSuffix(name, ".sh") {
				if m := shellAssign.FindStringSubmatch(l.text); m != nil {
					vars[m[1]] = m[2]
				}
				l.text = shellVar.ReplaceAllStringFunc(l.text, func(v string) string {
					key := shellVar.FindStringSubmatch(v)[1]
					if val, ok := vars[key]; ok {
						return val
					}
					return key
				})
			}
			m := run.FindStringSubmatch(l.text)
			if m == nil || strings.Contains(m[1], "$") {
				continue
			}
			args := strings.Fields(m[1])
			for i, a := range args {
				args[i] = strings.Trim(a, `"'`)
			}
			out = append(out, Invocation{name, l.line, args})
		}
	}
	return out, nil
}

var (
	codeSpan    = regexp.MustCompile("`([^`]+)`")
	shellAssign = regexp.MustCompile(`^\s*(\w+)="([^"$]*)"\s*$`)
	shellVar    = regexp.MustCompile(`\$\{?(\w+)\}?`)
)

type codeLine struct {
	line int
	text string
}

// codeLines returns a file's code, `\` continuations joined: in
// Markdown its fenced lines and each prose paragraph's inline code
// spans, in Go the code blocks of its comments, elsewhere every line.
func codeLines(path string) ([]codeLine, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	md, gofile := strings.HasSuffix(path, ".md"), strings.HasSuffix(path, ".go")
	var out []codeLine
	var para []string
	paraLine, fenced := 0, false
	flush := func() {
		for _, span := range codeSpan.FindAllStringSubmatch(strings.Join(para, " "), -1) {
			out = append(out, codeLine{paraLine, span[1]})
		}
		para = nil
	}
	lines := strings.Split(string(data), "\n")
	for n := 0; n < len(lines); n++ {
		text, start := lines[n], n+1
		for strings.HasSuffix(text, `\`) && n+1 < len(lines) {
			n++
			text = strings.TrimSuffix(text, `\`) + " " + lines[n]
		}
		switch {
		case gofile:
			if code, ok := strings.CutPrefix(text, "//\t"); ok {
				out = append(out, codeLine{start, code})
			}
		case md && strings.HasPrefix(strings.TrimSpace(text), "```"):
			flush()
			fenced = !fenced
		case !md || fenced:
			out = append(out, codeLine{start, text})
		case strings.TrimSpace(text) == "":
			flush()
		default:
			if para == nil {
				paraLine = start
			}
			para = append(para, text)
		}
	}
	flush()
	return out, nil
}

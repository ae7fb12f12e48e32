package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

// TestDeclaration holds BENCHMARK.json to the contract's limits and to
// the workload table in this package.
func TestDeclaration(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range sp.Workloads {
		name(w.Name)
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, not in the same place in workloads.go", i, w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, workloads.go %d", len(sp.Workloads), len(workloads))
	}
	hasSetup := false
	for _, m := range sp.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		// Every declared end-to-end metric is one a run measures, and
		// -compare's same-seed gate on it is never looser than the
		// declared cross-seed bound.
		if g, ok := gate[m.Name]; !ok || g.rel <= 0 || g.rel > m.Bound {
			t.Errorf("%s: gate %+v (present %v) against bound %v", m.Name, g, ok, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric in s, lower is better")
	}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range sp.PerLayer {
		name(m.Name)
	}
}

// TestBaseline holds baseline.json — the committed untraced result the
// next change is compared against — to the declaration: every workload
// with the parameters workloads.go gives it, every end-to-end metric
// with its sample count and quartiles, and the exact simulated outcome
// (sim.events first of all) a speed-only change must reproduce.
func TestBaseline(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	base, err := loadResult("baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if base.Env.Seed != 1 || base.Env.Commit == "" || base.Env.GoVersion == "" || base.Env.NProc < 1 {
		t.Errorf("baseline environment: %+v", base.Env)
	}
	if len(base.Workloads) != len(workloads) {
		t.Fatalf("baseline has %d workload results, want %d untraced ones", len(base.Workloads), len(workloads))
	}
	for i := range workloads {
		w, b := &workloads[i], &base.Workloads[i]
		s := w.scenario(1, false)
		want := paramsOf(&s, b.Params.Runs, b.Params.Workers)
		if b.Name != w.name || b.Traced || b.Seed != 1 || b.Params != want {
			t.Errorf("baseline entry %d is %s traced=%v seed %d %+v, want untraced %s seed 1 %+v", i, b.Name, b.Traced, b.Seed, b.Params, w.name, want)
		}
		runs, workers := 1, 1
		if w.sweep {
			ss, err := sweepScenarios(s)
			if err != nil {
				t.Fatal(err)
			}
			runs, workers = len(ss), sweepWorkers
		}
		if b.Params.Runs != runs || b.Params.Workers != workers {
			t.Errorf("%s: %d runs per operation on %d workers, want %d on %d", w.name, b.Params.Runs, b.Params.Workers, runs, workers)
		}
		if b.Failed != 0 || b.Ops < w.reps {
			t.Errorf("%s: %d of %d operations failed, want 0 of at least %d", w.name, b.Failed, b.Ops, w.reps)
		}
		for name := range gate {
			d, ok := b.EndToEnd[name]
			if !ok || d.N < 1 || !(0 < d.Min && d.Min <= d.Q1 && d.Q1 <= d.Median && d.Median <= d.Q3 && d.Q3 <= d.Max) {
				t.Errorf("%s: baseline %s = %+v (present %v)", w.name, name, d, ok)
			}
		}
		for _, m := range sp.EndToEnd {
			if d := b.EndToEnd[m.Name]; d.Unit != m.Unit {
				t.Errorf("%s: baseline %s is in %q, declared in %q", w.name, m.Name, d.Unit, m.Unit)
			}
		}
		for _, name := range []string{"sim.events", "sim.events_per_packet", "fabric.packets_delivered"} {
			if m := b.Exact[name]; !m.Exact || m.Value <= 0 {
				t.Errorf("%s: baseline exact %s = %+v", w.name, name, m)
			}
		}
		if _, ok := b.Exact["metrics.paper_total_err_pct"]; ok != (w.paperTotal > 0) {
			t.Errorf("%s: error against the paper present %v, reference exists %v", w.name, ok, w.paperTotal > 0)
		}
	}
}

// TestWorkloadsAtSmokeScale runs every workload in both modes through
// the code path the real benchmark takes, at radix 8 with a 0.2 ms
// window, and checks that every declared metric comes out finite and
// with the declared unit, that nothing undeclared comes out, that no
// operation fails, and that a result compared with itself is all same.
func TestWorkloadsAtSmokeScale(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		declared[m.Name] = m.Unit
	}
	dir := t.TempDir()
	var res result
	measured := map[string]bool{}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			wr, err := runWorkload(w, traced, runOpts{seed: 1, smoke: true, traceDir: dir})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if wr.Failed != 0 || wr.Ops == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, wr.Failed, wr.Ops, wr.Failures)
			}
			if !traced && len(wr.EndToEnd) != len(gate) {
				t.Errorf("%s: %d end-to-end metrics measured, %d gated", w.name, len(wr.EndToEnd), len(gate))
			}
			for name, d := range wr.EndToEnd {
				if _, ok := gate[name]; !ok {
					t.Errorf("%s: end-to-end %s is measured but -compare has no gate for it", w.name, name)
				}
				if unit, ok := declared[name]; ok && unit != d.Unit {
					t.Errorf("%s: end-to-end %s has unit %q, declared %q", w.name, name, d.Unit, unit)
				}
			}
			for _, l := range []layers{wr.Exact, wr.PerLayer} {
				for name, m := range l {
					measured[name] = true
					if declared[name] != m.Unit {
						t.Errorf("%s: %s has unit %q, declared %q", w.name, name, m.Unit, declared[name])
					}
				}
			}

			line, err := contractLine(sp, wr)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var got struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if !got.Correct || got.Attempted < 1 || len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result line %s", w.name, traced, line)
			}
			for _, m := range want {
				v, ok := got.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %s in the result line: %+v (present %v)", w.name, m.Name, v, ok)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.name, m.Name, v.Value)
				}
			}
			if traced {
				if _, err := os.Stat(wr.TraceFile); err != nil {
					t.Errorf("%s: spans: %v", w.name, err)
				}
			}
			res.Workloads = append(res.Workloads, *wr)
		}
	}
	for _, m := range sp.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", m.Name)
		}
	}

	path := filepath.Join(dir, "self.json")
	data, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	worse, err := compareFiles(&report, path, path)
	if err != nil || worse {
		t.Fatalf("self-compare: worse=%v err=%v\n%s", worse, err, report.String())
	}
	rows := strings.Count(report.String(), "  same\n")
	if want := len(workloads) * len(gate); rows != want {
		t.Errorf("self-compare has %d rows reading same, want %d:\n%s", rows, want, report.String())
	}
	if !strings.Contains(report.String(), "every exact count and digest is identical") {
		t.Errorf("self-compare lists differing counts:\n%s", report.String())
	}

	// A result that lost a workload, or an end-to-end metric, is worse.
	write := func(name string, r result) string {
		data, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	short := write("short.json", result{Workloads: res.Workloads[1:]})
	if worse, err := compareFiles(&report, path, short); err != nil || !worse {
		t.Errorf("a result without %s compares worse=%v err=%v", res.Workloads[0].Name, worse, err)
	}
	lost := res.Workloads[0]
	lost.EndToEnd = map[string]dist{"wall_s": lost.EndToEnd["wall_s"]}
	fewer := write("fewer.json", result{Workloads: append([]workloadResult{lost}, res.Workloads[1:]...)})
	if worse, err := compareFiles(&report, path, fewer); err != nil || !worse {
		t.Errorf("a result without most end-to-end metrics compares worse=%v err=%v", worse, err)
	}
	other := write("other.json", result{Env: environment{Seed: 2}, Workloads: res.Workloads})
	if _, err := compareFiles(&report, path, other); err == nil {
		t.Error("results of different seeds were compared")
	}

	// A run whose operations all failed still yields a result line.
	line, err := contractLine(sp, &workloadResult{Name: "uniform_r18", Ops: 2, Failed: 2})
	if err != nil || !strings.Contains(string(line), `"correct":false,"attempted":2,"failed":2`) {
		t.Errorf("result line of an all-failed run: %s (%v)", line, err)
	}
}

// TestQuartilesMatchPython pins quantile to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct{ in, want []float64 }{
		{[]float64{1, 2, 3, 4, 5}, []float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4}, []float64{1.25, 2.5, 3.75}},
		{[]float64{7}, []float64{7, 7, 7}},
	} {
		d := summarize("s", c.in)
		if got := []float64{d.Q1, d.Median, d.Q3}; got[0] != c.want[0] || got[1] != c.want[1] || got[2] != c.want[2] {
			t.Errorf("quartiles of %v = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	rel, floor := tolerance{rel: 0.05}, tolerance{rel: 0.05, abs: 0.005}
	base := summarize("s", []float64{1.00, 1.01, 0.99, 1.00, 1.02})
	noisy := summarize("s", []float64{0.8, 1.0, 1.2, 0.9, 1.1})
	few := summarize("1/packet", []float64{0.0200, 0.0201, 0.0200})
	scale := func(d dist, f float64) dist {
		return dist{d.Unit, d.N, d.Median * f, d.Min * f, d.Q1 * f, d.Q3 * f, d.Max * f}
	}
	for _, c := range []struct {
		name string
		g    tolerance
		a, b dist
		want string
	}{
		{"within the bound", rel, base, scale(base, 1.03), "same"},
		{"slower than the bound", rel, base, scale(base, 1.08), "worse"},
		{"faster, every run", rel, base, scale(base, 0.9), "better"},
		{"spread hides a small change", rel, noisy, scale(noisy, 1.03), "unresolved"},
		{"spread but every run faster", rel, noisy, scale(noisy, 0.5), "better"},
		{"spread but every run slower", rel, noisy, scale(noisy, 2), "worse"},
		{"the same samples", rel, noisy, noisy, "same"},
		{"under the absolute floor", floor, few, scale(few, 1.2), "same"},
		{"over the absolute floor", floor, few, scale(few, 1.3), "worse"},
	} {
		if got := verdict(c.g, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

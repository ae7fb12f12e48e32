package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &r, nil
}

type tolerance struct{ rel, abs float64 }

// gate lists every end-to-end metric an untraced run measures (lower is
// better for each) with the regression gate of -compare: how far its
// median may worsen between two runs of the same seed before the change
// is called a regression — rel as a share of the base median, and never
// less than abs in the metric's own unit (allocs_per_packet is ~0.02 on
// the bypass workload, where 5 % is a handful of mallocs). Same-seed
// runs simulate identical work and repeat within 2 %, so these are far
// tighter than the bounds of BENCHMARK.json, which must also hold across
// seeds and host drift — and which therefore leave out wall_s and
// allocs_per_packet: another seed is another placement, and those two
// follow the packets it delivers (README.md, "Two sets of limits").
var gate = map[string]tolerance{
	"wall_s":            {rel: 0.05},
	"ns_per_packet":     {rel: 0.05},
	"allocs_per_op":     {rel: 0.05},
	"allocs_per_packet": {rel: 0.05, abs: 0.005},
	"peak_rss_mb":       {rel: 0.10},
	"setup_s":           {rel: 0.15},
}

// verdict judges run b against base a under tolerance g (lower is better
// for every gated metric). A median inside the tolerance is "same", one
// beyond it "worse" or "better" — unless the
// run-to-run spread (the larger interquartile range) exceeds the
// tolerance and the two sides' runs overlap, which is "unresolved".
// Identical distributions are one measurement read twice, hence "same"
// whatever their spread.
func verdict(g tolerance, a, b dist) string {
	if a == b {
		return "same"
	}
	tol := math.Max(g.rel*math.Abs(a.Median), g.abs)
	worsening := b.Median - a.Median
	apart := b.Max < a.Min || b.Min > a.Max
	switch {
	case math.Max(a.Q3-a.Q1, b.Q3-b.Q1) > tol && !apart:
		return "unresolved"
	case worsening > tol:
		return "worse"
	case -worsening > tol:
		return "better"
	}
	return "same"
}

// compareFiles prints one row per workload × gated end-to-end metric of
// result files A (the base) and B, then every exact per-layer count and
// digest that differs. It reports whether B is worse: any "worse"
// verdict, any workload or end-to-end metric of A that B lacks, or any
// rise in failed/ops. The two files must come from the same seed:
// another seed is another placement, hence other simulated work.
func compareFiles(out io.Writer, pathA, pathB string) (worse bool, err error) {
	ra, err := loadResult(pathA)
	if err != nil {
		return false, err
	}
	rb, err := loadResult(pathB)
	if err != nil {
		return false, err
	}
	if ra.Env.Seed != rb.Env.Seed {
		return false, fmt.Errorf("%s ran seed %d and %s seed %d: only runs of the same seed simulate the same work", pathA, ra.Env.Seed, pathB, rb.Env.Seed)
	}
	fmt.Fprintf(out, "A = %s (commit %s, seed %d)\nB = %s (commit %s, seed %d)\n",
		pathA, ra.Env.Commit, ra.Env.Seed, pathB, rb.Env.Commit, rb.Env.Seed)
	fmt.Fprintf(out, "%-16s %-18s %-10s %12s %22s %12s %22s %14s %12s  %s\n",
		"workload", "metric", "unit", "A median", "A q1..q3", "B median", "B q1..q3", "B/A (A base)", "gate", "verdict")
	differ := 0
	for i := range ra.Workloads {
		a := &ra.Workloads[i]
		var b *workloadResult
		for j := range rb.Workloads {
			if rb.Workloads[j].Name == a.Name && rb.Workloads[j].Traced == a.Traced {
				b = &rb.Workloads[j]
			}
		}
		if b == nil {
			fmt.Fprintf(out, "%-16s missing from B (traced %v)\n", a.Name, a.Traced)
			worse = true
			continue
		}
		if b.Failed*a.Ops > a.Failed*b.Ops {
			fmt.Fprintf(out, "%-16s failed/ops rose from %d/%d to %d/%d: %v\n", a.Name, a.Failed, a.Ops, b.Failed, b.Ops, b.Failures)
			worse = true
		}
		for _, name := range sortedKeys(gate) {
			da, okA := a.EndToEnd[name]
			db, okB := b.EndToEnd[name]
			if a.Traced || (!okA && !okB) {
				continue // traced runs measure no end-to-end metric
			}
			if !okA || !okB {
				fmt.Fprintf(out, "%-16s %-18s missing (in A %v, in B %v)\n", a.Name, name, okA, okB)
				worse = true
				continue
			}
			v := verdict(gate[name], da, db)
			if v == "worse" {
				worse = true
			}
			g := fmt.Sprintf("%.0f%%", 100*gate[name].rel)
			if abs := gate[name].abs; abs > 0 {
				g += fmt.Sprintf("|%g", abs)
			}
			fmt.Fprintf(out, "%-16s %-18s %-10s %12.6g %22s %12.6g %22s %14.4f %12s  %s\n",
				a.Name, name, da.Unit, da.Median, fmt.Sprintf("%.5g..%.5g", da.Q1, da.Q3),
				db.Median, fmt.Sprintf("%.5g..%.5g", db.Q1, db.Q3), db.Median/da.Median, g, v)
		}
		for _, pair := range []struct{ a, b layers }{{a.Exact, b.Exact}, {a.PerLayer, b.PerLayer}} {
			for _, name := range sortedKeys(pair.a) {
				ma, mb := pair.a[name], pair.b[name]
				if ma.Exact && ma.Value != mb.Value {
					fmt.Fprintf(out, "%-16s exact count %s differs: A %.10g, B %.10g %s\n", a.Name, name, ma.Value, mb.Value, ma.Unit)
					differ++
				}
			}
		}
		if a.Digest != b.Digest {
			fmt.Fprintf(out, "%-16s digest differs: A %s, B %s\n", a.Name, a.Digest, b.Digest)
			differ++
		}
	}
	if differ == 0 {
		fmt.Fprintln(out, "every exact count and digest is identical")
	}
	return worse, nil
}

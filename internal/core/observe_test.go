package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// tiny returns a very short, very small scenario for streaming-consumer
// tests where every event is serialized.
func tiny() Scenario {
	s := Default(4)
	s.NumHotspots = 2
	s.Warmup = 100 * sim.Microsecond
	s.Measure = 200 * sim.Microsecond
	return s
}

func TestObserveTreeClassifiesContributorsAndVictims(t *testing.T) {
	// Windy forest: every node is a B node sending p% into its subset's
	// hotspot — the paper's figure-5 population — so every source owns
	// both a contributor flow (into the hotspot) and victim flows
	// (uniform remainder).
	s := quick(8)
	s.FracBPct, s.PPercent = 100, 60
	in, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	smp := telemetry.NewSampler(s.Name, 0)
	ob := in.Observe(ObserveOpts{Tree: true, Counters: true, Telemetry: smp})
	in.Execute()
	smp.Finish()

	rep := ob.TreeReport()
	if rep == nil || len(rep.Trees) == 0 {
		t.Fatal("no congestion trees reconstructed")
	}

	// Every reconstructed tree must sit at a true hotspot, and all the
	// paper's hotspots endure enough marking over the run to be found.
	hot := rep.HotspotSet()
	for dst := range hot {
		if !in.Pop.HotspotSet[dst] {
			t.Errorf("tree at %d is not a real hotspot", dst)
		}
	}
	if len(rep.Trees) != len(in.Pop.Hotspots) {
		t.Errorf("reconstructed %d trees, want %d", len(rep.Trees), len(in.Pop.Hotspots))
	}

	// Classification: a flow is a contributor iff it feeds a hotspot.
	if rep.Contributors == 0 || rep.Victims == 0 {
		t.Fatalf("contributors=%d victims=%d, want both > 0", rep.Contributors, rep.Victims)
	}
	for f, class := range rep.Flows {
		want := obs.FlowVictim
		if in.Pop.HotspotSet[f.Dst] {
			want = obs.FlowContributor
		}
		if class != want {
			t.Fatalf("flow %d->%d classified %v, want %v", f.Src, f.Dst, class, want)
		}
	}

	// Tree structure: the root of each tree is the congested host-facing
	// port, and recorded contributors all target that tree's hotspot.
	for _, tr := range rep.Trees {
		if !tr.Root.HostPort {
			t.Errorf("tree at %d rooted at fabric-internal port %v", tr.Dst, tr.Root.Key)
		}
		if tr.Root.Marks == 0 {
			t.Errorf("tree at %d root has no marks", tr.Dst)
		}
		for _, f := range tr.Contributors {
			if f.Dst != tr.Dst {
				t.Errorf("tree at %d lists contributor %d->%d", tr.Dst, f.Src, f.Dst)
			}
		}
	}

	// The counter registry saw the same congestion.
	marks, _, fwd, _ := ob.Registry.Totals()
	if marks == 0 || fwd == 0 {
		t.Fatalf("registry totals: marks=%d fwd=%d", marks, fwd)
	}
	if _, hottest := ob.Registry.HottestPort(); hottest == nil || hottest.FECNMarks == 0 {
		t.Fatal("no hottest port")
	}
	if colMax(smp.Snapshot().Rows, func(r telemetry.Row) float64 { return r.CCTIIncr }) == 0 {
		t.Fatal("sampler saw no CCTI steps despite CC activity")
	}

	var sb strings.Builder
	rep.WriteTo(&sb)
	if !strings.Contains(sb.String(), "contributors") {
		t.Fatalf("report text missing summary: %q", sb.String())
	}
}

func TestObserveSilentForestContributorsAreCNodes(t *testing.T) {
	// Silent forest (Table II): C nodes aim everything at their subset's
	// hotspot, V nodes are purely uniform. Every C-node flow must come
	// out a contributor.
	s := quick(8)
	in, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	ob := in.Observe(ObserveOpts{Tree: true})
	in.Execute()
	rep := ob.TreeReport()
	if rep == nil || len(rep.Trees) == 0 {
		t.Fatal("no congestion trees reconstructed")
	}
	for f, class := range rep.Flows {
		if in.Pop.Roles[f.Src] == RoleC && class != obs.FlowContributor {
			t.Fatalf("C-node flow %d->%d classified %v", f.Src, f.Dst, class)
		}
	}
	// Every C node is a contributor source (V nodes may additionally
	// graze a hotspot with uniform traffic, so >= rather than ==).
	nC := 0
	for _, role := range in.Pop.Roles {
		if role == RoleC {
			nC++
		}
	}
	if rep.ContributorSrcs < nC {
		t.Fatalf("contributor sources %d < %d C nodes", rep.ContributorSrcs, nC)
	}
	if rep.VictimSrcs == 0 {
		t.Fatal("no victim sources")
	}
}

func TestObserveStreamsAndClose(t *testing.T) {
	s := tiny()
	in, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	ob := in.Observe(ObserveOpts{Events: &events})
	in.Execute()
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
	nj := ob.EventsWritten()
	if nj == 0 {
		t.Fatal("no events written")
	}

	// Every JSONL line is a standalone JSON object with a known kind.
	lines := strings.Split(strings.TrimRight(events.String(), "\n"), "\n")
	if uint64(len(lines)) != nj {
		t.Fatalf("jsonl lines=%d, counter=%d", len(lines), nj)
	}
	kinds := make(map[string]bool)
	for _, ln := range lines {
		var e struct {
			Kind string  `json:"kind"`
			TUs  float64 `json:"t_us"`
		}
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
		if e.Kind == "" {
			t.Fatalf("line missing kind: %q", ln)
		}
		kinds[e.Kind] = true
	}
	for _, want := range []string{"packet_sent", "packet_delivered", "queue_sampled"} {
		if !kinds[want] {
			t.Errorf("no %s events in log (kinds: %v)", want, kinds)
		}
	}
}

func TestObserveEventLogDeterministic(t *testing.T) {
	run := func() string {
		s := tiny()
		s.Seed = 7
		in, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		ob := in.Observe(ObserveOpts{Events: &buf})
		in.Execute()
		if err := ob.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatal("event log differs between identical runs")
	}
}

func TestObserveDoesNotPerturbResult(t *testing.T) {
	// Attaching the full flight recorder must not change the simulated
	// trajectory: same seed, same result, observed or not.
	base := func() *Result {
		s := tiny()
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}()
	in, err := Build(tiny())
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	ob := in.Observe(ObserveOpts{
		Events: &events,
		Tree:   true, Counters: true, Telemetry: telemetry.NewSampler("all", 0),
	})
	got := in.Execute()
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Events != base.Events {
		t.Fatalf("event count changed under observation: %d != %d", got.Events, base.Events)
	}
	if got.Summary.TotalGbps != base.Summary.TotalGbps {
		t.Fatalf("throughput changed under observation: %v != %v", got.Summary.TotalGbps, base.Summary.TotalGbps)
	}
}

func TestObserveAfterExecutePanics(t *testing.T) {
	in, err := Build(tiny())
	if err != nil {
		t.Fatal(err)
	}
	in.Execute()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	in.Observe(ObserveOpts{})
}

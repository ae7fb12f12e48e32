package ibcc

import (
	"strings"
	"testing"
)

// The facade is a thin re-export layer; this smoke test pins that every
// public entry point is wired to the right implementation.
func TestFacadeSmoke(t *testing.T) {
	s := DefaultScenario(8)
	s.Warmup = 200 * Microsecond
	s.Measure = 600 * Microsecond

	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.TotalGbps <= 0 || res.Events == 0 {
		t.Fatalf("empty result: %+v", res.Summary)
	}

	in, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	smp := NewTelemetrySampler(s.Name, 100*Microsecond)
	in.Observe(ObserveOpts{Telemetry: smp})
	if in.Execute() == nil {
		t.Fatal("Execute returned nil")
	}
	smp.Finish()
	var csv strings.Builder
	snap := smp.Snapshot()
	if err := snap.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(csv.String(), "\n") - 1; rows != 8 || rows > TelemetryRingCap {
		t.Fatalf("800 µs at 100 µs cadence traced %d rows, want 8", rows)
	}

	if p := PaperCCParams(); p.CCTILimit != 127 || p.Threshold != 15 {
		t.Fatalf("PaperCCParams = %+v", p)
	}
	if got := PaperPValues(); len(got) != 11 {
		t.Fatalf("PaperPValues = %v", got)
	}
	if got := PaperLifetimes(1); len(got) != 8 || got[0] != 10*Millisecond {
		t.Fatalf("PaperLifetimes = %v", got)
	}
}

func TestFacadeSweepsAndPrinting(t *testing.T) {
	s := DefaultScenario(8)
	s.Warmup = 200 * Microsecond
	s.Measure = 600 * Microsecond

	pts, err := RunWindySweepOpts(s, 100, []int{60}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	PrintWindy(&sb, "test", 100, pts)
	if !strings.Contains(sb.String(), "Figure test") {
		t.Fatalf("PrintWindy output: %q", sb.String())
	}

	mv, err := RunMovingSweepOpts(s, []Duration{300 * Microsecond}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	PrintMoving(&sb, "test", "label", mv)
	if !strings.Contains(sb.String(), "label") {
		t.Fatalf("PrintMoving output: %q", sb.String())
	}

	m, err := RunSeedsOpts(s, []uint64{1, 2}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Total.N() != 2 {
		t.Fatalf("RunSeeds n = %d", m.Total.N())
	}

	tab, err := RunTableIIOpts(s, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	tab.Print(&sb)
	if !strings.Contains(sb.String(), "Table II") {
		t.Fatal("TableII print wrong")
	}
}

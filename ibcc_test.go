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
	if got := Paper(DefaultScenario(8), PaperPValues()); len(got) != 2+4*11+2*8+3*8 {
		t.Fatalf("Paper has %d rows", len(got))
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
	PrintWindy(&sb, pts)
	if !strings.Contains(sb.String(), "improvement") {
		t.Fatalf("PrintWindy output: %q", sb.String())
	}

	mv, err := RunPairs(MovingRows(s, []Duration{300 * Microsecond}), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	PrintPaper(&sb, mv) // an unlabelled row prints no heading line
	if !strings.HasPrefix(sb.String(), "      lifetime") || strings.Count(sb.String(), "\n") != 3 {
		t.Fatalf("PrintPaper output: %q", sb.String())
	}

	m, err := RunSeedsOpts(s, []uint64{1, 2}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Total.N() != 2 {
		t.Fatalf("RunSeeds n = %d", m.Total.N())
	}

	tab, err := RunPairs(Paper(s, nil)[:2], RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	PrintPaper(&sb, tab)
	if !strings.Contains(sb.String(), "Table II") {
		t.Fatal("Table II print wrong")
	}
}

package core

import (
	"strings"
	"testing"
)

func TestScanCC(t *testing.T) {
	// Radix 12 is the smallest scale where the aggressive threshold
	// reliably beats no-CC (at radix 8 the 3 contributors per hotspot
	// make the harmonic CCT too coarse).
	base := quick(12)
	sc, err := ScanCCOpts(base, "threshold", []int{0, 15}, func(s *Scenario, v int) {
		s.CC.Threshold = uint8(v)
	}, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Points) != 2 {
		t.Fatalf("points = %d", len(sc.Points))
	}
	if sc.Baseline.Total <= 0 {
		t.Fatal("no baseline")
	}
	// Threshold 0 disables marking: its outcome must match the
	// baseline closely, while 15 must beat it.
	p0, p15 := sc.Points[0], sc.Points[1]
	if p0.FECNMarked != 0 {
		t.Fatalf("threshold 0 marked %d packets", p0.FECNMarked)
	}
	if p0.Improvement < 0.95 || p0.Improvement > 1.05 {
		t.Fatalf("threshold 0 improvement = %.3f", p0.Improvement)
	}
	if p15.Improvement <= p0.Improvement {
		t.Fatalf("threshold 15 (%.3f) not above 0 (%.3f)", p15.Improvement, p0.Improvement)
	}
	if sc.Best().Value != 15 {
		t.Fatalf("best = %d", sc.Best().Value)
	}
	var sb strings.Builder
	sc.Print(&sb)
	out := sb.String()
	for _, want := range []string{"parameter scan: threshold", "best total at threshold=15"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Print missing %q:\n%s", want, out)
		}
	}
}

func TestScanCCErrors(t *testing.T) {
	base := quick(8)
	if _, err := ScanCCOpts(base, "x", nil, func(*Scenario, int) {}, Opts{}); err == nil {
		t.Fatal("empty values accepted")
	}
	if _, err := ScanCCOpts(base, "x", []int{1}, nil, Opts{}); err == nil {
		t.Fatal("nil apply accepted")
	}
	if _, err := ScanCCOpts(base, "x", []int{1}, func(s *Scenario, v int) {
		s.CC.CCT = nil
	}, Opts{}); err == nil {
		t.Fatal("invalid mutation accepted")
	}
}

package core

import (
	"strings"
	"testing"
)

func TestRunSeeds(t *testing.T) {
	s := quick(8)
	m, err := RunSeedsOpts(s, []uint64{1, 2, 3}, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Total.N() != 3 || len(m.Seeds) != 3 {
		t.Fatalf("n = %d", m.Total.N())
	}
	if m.Total.Mean() <= 0 {
		t.Fatal("no throughput")
	}
	if m.Total.Min() > m.Total.Mean() || m.Total.Max() < m.Total.Mean() {
		t.Fatal("mean outside [min,max]")
	}
	// Seeds genuinely vary the outcome.
	if m.Total.Min() == m.Total.Max() {
		t.Fatal("seeds produced identical totals")
	}
	var sb strings.Builder
	m.Print(&sb, "table II, CC on")
	out := sb.String()
	for _, want := range []string{"3 seeds", "hotspots", "total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Print missing %q:\n%s", want, out)
		}
	}
}

func TestRunSeedsErrors(t *testing.T) {
	if _, err := RunSeedsOpts(quick(8), nil, Opts{}); err == nil {
		t.Fatal("empty seed list accepted")
	}
	bad := quick(8)
	bad.Radix = 3
	if _, err := RunSeedsOpts(bad, []uint64{1}, Opts{}); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

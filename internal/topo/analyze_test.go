package topo

import (
	"strings"
	"testing"
)

func analyze(t *testing.T, tp *Topology) *Analysis {
	t.Helper()
	r, err := ComputeLFT(tp)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(tp, r)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAnalyzeSingleSwitch(t *testing.T) {
	tp, _ := SingleSwitch(6)
	a := analyze(t, tp)
	if a.Hosts != 6 || a.Switches != 1 || a.Links != 6 {
		t.Fatalf("counts: %+v", a)
	}
	// Every route crosses exactly the one crossbar.
	if a.PathLenHist[1] != 30 || len(a.PathLenHist) != 1 {
		t.Fatalf("hist = %v", a.PathLenHist)
	}
	if a.AvgPathLen() != 1 {
		t.Fatalf("avg = %v", a.AvgPathLen())
	}
	// No inter-switch links: balance degenerates to 1.
	if a.Balance() != 1 || a.MaxLoad != 0 {
		t.Fatalf("balance = %v max %d", a.Balance(), a.MaxLoad)
	}
}

func TestAnalyzeFatTreeBalance(t *testing.T) {
	tp, _ := FatTree(6)
	a := analyze(t, tp)
	// The destination-modulo LFT balances the fat-tree exactly: every
	// directed inter-switch link carries the same number of routes.
	if a.Balance() != 1.0 {
		t.Fatalf("fat-tree balance = %.3f (min %d max %d)", a.Balance(), a.MinLoad, a.MaxLoad)
	}
	// Paths: intra-leaf (1 hop) and leaf-spine-leaf (3 hops) only.
	if a.PathLenHist[2] != 0 || a.PathLenHist[1] == 0 || a.PathLenHist[3] == 0 {
		t.Fatalf("hist = %v", a.PathLenHist)
	}
	if avg := a.AvgPathLen(); avg <= 1 || avg >= 3 {
		t.Fatalf("avg = %v", avg)
	}
}

func TestAnalyzeDegradedImbalance(t *testing.T) {
	full, _ := FatTree(6)
	af := analyze(t, full)
	// Killing one spine leaves fewer uplinks carrying more routes each;
	// max directed load must rise.
	deg, _ := FatTreeDegraded(6, DeadSpines(0))
	ad := analyze(t, deg)
	if ad.MaxLoad <= af.MaxLoad {
		t.Fatalf("degraded max load %d not above intact %d", ad.MaxLoad, af.MaxLoad)
	}
}

func TestAnalyzeHostLinkLoad(t *testing.T) {
	tp, _ := SingleSwitch(4)
	a := analyze(t, tp)
	// Each host transmits to 3 destinations: its uplink carries 3
	// routes; each switch-to-host link carries 3 (one per source).
	for l, load := range a.LinkLoad {
		if load != 3 {
			t.Fatalf("link %v load %d, want 3", l, load)
		}
	}
}

func TestAnalysisPrint(t *testing.T) {
	tp, _ := FatTree(4)
	a := analyze(t, tp)
	var sb strings.Builder
	a.Print(&sb)
	out := sb.String()
	for _, want := range []string{"hosts 8", "switches 6", "hops", "balance"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Print missing %q:\n%s", want, out)
		}
	}
}

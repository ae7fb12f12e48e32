package topo

import (
	"testing"

	"repro/internal/ib"
)

func TestFatTreeDegradedRoutesAroundDeadSpine(t *testing.T) {
	tp, err := FatTreeDegraded(6, DeadSpines(0))
	if err != nil {
		t.Fatal(err)
	}
	r, err := ComputeLFT(tp)
	if err != nil {
		t.Fatal(err)
	}
	deadSpine := tp.Nodes[tp.NumHosts+6] // spines follow the 6 leaves
	if deadSpine.Kind != Switch || deadSpine.Name != "spine0" {
		t.Fatalf("layout assumption broken: %s", deadSpine.Name)
	}
	for s := 0; s < tp.NumHosts; s++ {
		for d := 0; d < tp.NumHosts; d++ {
			path, err := Trace(tp, r, ib.LID(s), ib.LID(d))
			if err != nil {
				t.Fatalf("route %d->%d: %v", s, d, err)
			}
			for _, n := range path {
				if n == deadSpine.ID {
					t.Fatalf("route %d->%d crosses the dead spine", s, d)
				}
			}
		}
	}
}

func TestFatTreeDegradedSurvivingLoadRises(t *testing.T) {
	// With spine 0 dead, its destinations shift to the survivors: the
	// per-uplink destination spread becomes uneven.
	full, _ := FatTree(6)
	rFull, _ := ComputeLFT(full)
	deg, _ := FatTreeDegraded(6, DeadSpines(0))
	rDeg, _ := ComputeLFT(deg)

	counts := func(tp *Topology, r *Routing) map[int]int {
		leaf := NodeID(tp.NumHosts) // leaf0
		m := map[int]int{}
		for d := 0; d < tp.NumHosts; d++ {
			if d/3 == 0 {
				continue // local
			}
			m[r.OutPort(leaf, ib.LID(d))]++
		}
		return m
	}
	cFull, cDeg := counts(full, rFull), counts(deg, rDeg)
	if len(cFull) != 3 || len(cDeg) != 2 {
		t.Fatalf("uplinks used: full %v degraded %v", cFull, cDeg)
	}
	for port, n := range cDeg {
		if n <= cFull[port] {
			t.Fatalf("surviving uplink %d load did not rise: %d vs %d", port, n, cFull[port])
		}
	}
}

func TestFatTreeDegradedRejectsTotalFailure(t *testing.T) {
	if _, err := FatTreeDegraded(4, func(l, s int) bool { return true }); err == nil {
		t.Fatal("accepted fabric with no spine links")
	}
	if _, err := FatTreeDegraded(3, nil); err == nil {
		t.Fatal("accepted odd radix")
	}
	// nil skip degenerates to the full fat-tree.
	tp, err := FatTreeDegraded(4, nil)
	if err != nil || tp.NumHosts != 8 {
		t.Fatalf("nil skip: %v", err)
	}
}

package core

import (
	"strings"
	"testing"

	"repro/internal/ib"
	"repro/internal/sim"
)

func TestAssignRolesCounts(t *testing.T) {
	s := Default(18) // 162 nodes
	s.FracBPct = 50
	pop := assignRoles(&s, sim.NewRNG(3))
	b, c, v := pop.Counts()
	if b != 81 {
		t.Fatalf("B = %d, want 81", b)
	}
	// Rest: 81 nodes, 80% C.
	if c != 64 || v != 17 {
		t.Fatalf("C/V = %d/%d, want 64/17", c, v)
	}
	if len(pop.Hotspots) != 8 {
		t.Fatalf("hotspots = %d", len(pop.Hotspots))
	}
}

func TestAssignRolesHotspotsDistinct(t *testing.T) {
	s := Default(12)
	pop := assignRoles(&s, sim.NewRNG(9))
	seen := map[ib.LID]bool{}
	for _, h := range pop.Hotspots {
		if seen[h] {
			t.Fatalf("duplicate hotspot %d", h)
		}
		seen[h] = true
		if int(h) < 0 || int(h) >= s.NumNodes() {
			t.Fatalf("hotspot %d out of range", h)
		}
	}
	if len(pop.HotspotSet) != len(pop.Hotspots) {
		t.Fatal("hotspot set inconsistent")
	}
}

func TestAssignRolesSubsets(t *testing.T) {
	s := Default(18)
	s.FracBPct = 30
	pop := assignRoles(&s, sim.NewRNG(5))
	sizes := make([]int, s.NumHotspots)
	for node, r := range pop.Roles {
		sub := pop.Subset[node]
		if r == RoleV {
			if sub != -1 {
				t.Fatalf("V node %d in subset %d", node, sub)
			}
			continue
		}
		if sub < 0 || sub >= s.NumHotspots {
			t.Fatalf("node %d subset %d out of range", node, sub)
		}
		// A contributor never targets itself.
		if pop.Hotspots[sub] == ib.LID(node) {
			t.Fatalf("node %d targets itself", node)
		}
		sizes[sub]++
	}
	// Round-robin dealing keeps subsets balanced within a couple.
	min, max := sizes[0], sizes[0]
	for _, v := range sizes {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max-min > 2 {
		t.Fatalf("unbalanced subsets: %v", sizes)
	}
}

func TestAssignRolesDeterministic(t *testing.T) {
	s := Default(12)
	s.FracBPct = 40
	a := assignRoles(&s, sim.NewRNG(7))
	b := assignRoles(&s, sim.NewRNG(7))
	for i := range a.Roles {
		if a.Roles[i] != b.Roles[i] || a.Subset[i] != b.Subset[i] {
			t.Fatal("role assignment not deterministic")
		}
	}
	for i := range a.Hotspots {
		if a.Hotspots[i] != b.Hotspots[i] {
			t.Fatal("hotspots not deterministic")
		}
	}
}

func TestRoleStrings(t *testing.T) {
	if RoleV.String() != "V" || RoleC.String() != "C" || RoleB.String() != "B" {
		t.Fatal("role strings")
	}
	s := Default(12)
	pop := assignRoles(&s, sim.NewRNG(1))
	str := pop.String()
	for _, want := range []string{"B=", "C=", "V=", "hotspots=8"} {
		if !strings.Contains(str, want) {
			t.Fatalf("String = %q", str)
		}
	}
}

func TestBuildTargeters(t *testing.T) {
	s := Default(12)
	pop := assignRoles(&s, sim.NewRNG(2))

	// Static: one fixed target per subset.
	ts := buildTargeters(&s, &pop, sim.NewRNG(3))
	for i, tg := range ts {
		if got := tg.Target(0); got != pop.Hotspots[i] {
			t.Fatalf("static target %d = %d, want %d", i, got, pop.Hotspots[i])
		}
		if got := tg.Target(sim.Time(sim.Second)); got != pop.Hotspots[i] {
			t.Fatal("static target moved")
		}
	}

	// Moving: slot 0 anchored at the drawn hotspot, then random.
	s.HotspotLifetime = sim.Millisecond
	ts = buildTargeters(&s, &pop, sim.NewRNG(3))
	for i, tg := range ts {
		if got := tg.Target(0); got != pop.Hotspots[i] {
			t.Fatalf("moving slot 0 target %d = %d, want %d", i, got, pop.Hotspots[i])
		}
	}
	// Over the run's slots, targets must actually move for at least
	// most subsets.
	moved := 0
	for _, tg := range ts {
		first := tg.Target(0)
		for slot := 1; slot < 10; slot++ {
			if tg.Target(sim.Time(slot)*sim.Time(sim.Millisecond)) != first {
				moved++
				break
			}
		}
	}
	if moved < len(ts)-1 {
		t.Fatalf("only %d of %d targeters moved", moved, len(ts))
	}
}

func TestRoleBreakdown(t *testing.T) {
	s := quick(12)
	s.FracBPct = 50
	s.PPercent = 60
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// All three roles are present and active.
	if res.PopB == 0 || res.PopC == 0 || res.PopV == 0 {
		t.Fatalf("population = %d/%d/%d", res.PopB, res.PopC, res.PopV)
	}
	for _, role := range []Role{RoleB, RoleC, RoleV} {
		if res.RoleTxGbps[role] <= 0 {
			t.Fatalf("role %v injected nothing", role)
		}
	}
	// V nodes send only uniform traffic; C nodes only hotspot traffic.
	// Every class must achieve a sane rate below the injection cap.
	for r, v := range res.RoleTxGbps {
		if v > 13.6 {
			t.Fatalf("role %d tx = %.3f above injection cap", r, v)
		}
	}
}

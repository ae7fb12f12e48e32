package core

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// executeAllocs builds s and returns how many heap allocations its
// Execute makes.
func executeAllocs(t *testing.T, s Scenario) uint64 {
	t.Helper()
	in, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := in.Execute()
	runtime.ReadMemStats(&m1)
	if res.Events == 0 {
		t.Fatal("run executed no events")
	}
	return m1.Mallocs - m0.Mallocs
}

// tableIICCOn is Table II's hotspots + CC row at the given radix.
func tableIICCOn(radix int) Scenario {
	s := TableIIScenarios(Default(radix))[3]
	if !s.CCOn || !s.CNodesActive {
		panic("core: Table II row order changed")
	}
	return s
}

// TestExecuteAllocatesPerSlabAtRadix12 bounds a whole radix-12 Table II
// CC-on run (4 + 8 ms, 196,560 packets taken from the pool): packets,
// events and pooled actions come from chunks that double up to 4096
// objects, so a run's allocations grow with the logarithm of its peak
// population, not with the peak itself. Made one object at a time, the
// pool's 2,244 packets alone were 2,244 allocations, and the whole
// Execute made 2,739.
func TestExecuteAllocatesPerSlabAtRadix12(t *testing.T) {
	if testing.Short() {
		t.Skip("whole simulation")
	}
	const budget = 250
	n := executeAllocs(t, tableIICCOn(12))
	t.Logf("Execute made %d allocations", n)
	if n > budget {
		t.Fatalf("Execute made %d allocations, want <= %d", n, budget)
	}
}

// TestExecuteAllocatesPerSlabAtRadix36 is the same bound on the paper's
// 648-node fabric over 1 ms, where the packet pool grows to 17,874
// packets (one object at a time, Execute made 21,526 allocations).
func TestExecuteAllocatesPerSlabAtRadix36(t *testing.T) {
	if testing.Short() {
		t.Skip("whole simulation")
	}
	s := tableIICCOn(36)
	s.Warmup, s.Measure = 200*sim.Microsecond, 800*sim.Microsecond
	const budget = 1000
	n := executeAllocs(t, s)
	t.Logf("Execute made %d allocations", n)
	if n > budget {
		t.Fatalf("Execute made %d allocations, want <= %d", n, budget)
	}
}

// TestBuildAllocatesPerSlabNotPerHost requires Build's allocations to
// grow by fewer than the hosts added from radix 12 to radix 36 (72 →
// 648): generators, their RNGs and flow tables, HCAs, host nodes, route
// candidates and CC timers live in network-wide slabs sized once from
// the topology, so no object is made per host.
func TestBuildAllocatesPerSlabNotPerHost(t *testing.T) {
	build := func(radix int) float64 {
		s := tableIICCOn(radix)
		return testing.AllocsPerRun(2, func() {
			if _, err := Build(s); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := build(12), build(36)
	r12, r36 := Default(12), Default(36)
	hosts := float64(r36.NumNodes() - r12.NumNodes())
	t.Logf("Build makes %.0f allocations at radix 12, %.0f at radix 36", small, large)
	if large-small >= hosts {
		t.Fatalf("Build allocations grew %.0f → %.0f (+%.0f) for %.0f more hosts, want fewer than one per host",
			small, large, large-small, hosts)
	}
}

// TestBuildStaysUnderMinHeapGoal bounds the bytes Build allocates for
// the paper's 648-node fabric below 3.5 MiB, under the runtime's 4 MiB
// minimum heap goal: a Build that crosses it starts a collection inside
// itself, whose mark assists scan the pointer-holding VoQ slab. With
// every VoQ ring padded to 64 ports it allocated 4.07 MiB; sized by the
// switch's 36 real ports, 3.24 MiB.
func TestBuildStaysUnderMinHeapGoal(t *testing.T) {
	const budget = 7 << 19 // 3.5 MiB
	s := Default(36)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	_, err := Build(s)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	n := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("Build allocated %.2f MiB", float64(n)/(1<<20))
	if n >= budget {
		t.Fatalf("Build allocated %d bytes, want < %d", n, budget)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	ibcc "repro"
	"repro/internal/core"
	"repro/internal/ib"
	"repro/internal/sim"
)

// The pre-PR event kernel (binary-heap FEL, heap-allocated packets;
// commit 9e8294c) measured on this workload. The numbers are pinned so
// every BENCH_kernel.json carries the comparison its speedup field is
// computed against.
const (
	baselineCommit    = "9e8294c"
	baselineSteadyNs  = 207.0 // BenchmarkKernelSteadyState, 4096 actors
	baselineShallowNs = 88.0  // BenchmarkKernelShallow, 64 actors
)

const (
	steadyActors  = 4096
	shallowActors = 64
)

// benchGateRatio is the regression gate shared with
// TestKernelBenchGuard: a fresh steady-state measurement more than 10%
// slower than the committed BENCH_kernel.json fails the
// -bench-baseline compare (and `make bench-kernel-gate`).
const benchGateRatio = 1.10

// kernelReport is the machine-readable BENCH_kernel.json document.
type kernelReport struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	CPUs        int    `json:"cpus"`

	Baseline struct {
		Commit            string  `json:"commit"`
		FEL               string  `json:"fel"`
		SteadyNsPerEvent  float64 `json:"steady_ns_per_event"`
		SteadyEventsPerS  float64 `json:"steady_events_per_sec"`
		ShallowNsPerEvent float64 `json:"shallow_ns_per_event"`
	} `json:"baseline"`

	Kernel struct {
		FEL               string  `json:"fel"`
		Actors            int     `json:"actors"`
		Events            int64   `json:"events"`
		WallNs            int64   `json:"wall_ns"`
		NsPerEvent        float64 `json:"ns_per_event"`
		EventsPerS        float64 `json:"events_per_sec"`
		AllocsPerEvent    float64 `json:"allocs_per_event"`
		ShallowNsPerEvent float64 `json:"shallow_ns_per_event"`
	} `json:"kernel"`

	Lifecycle struct {
		Scenario    string  `json:"scenario"`
		Packets     float64 `json:"packets"`
		WallNs      int64   `json:"wall_ns"`
		NsPerPacket float64 `json:"ns_per_packet"`
		// Events and EventsPerPacket are simulated counts over the timed
		// windows: exact, the same on every host and every run, so the
		// baseline compare gates them with no tolerance at all.
		Events          uint64  `json:"events"`
		EventsPerPacket float64 `json:"events_per_packet"`
		AllocsPerPkt    float64 `json:"allocs_per_packet"`
		PoolGets        uint64  `json:"pool_gets"`
		PoolMisses      uint64  `json:"pool_misses"`
		SteadyAllocs    uint64  `json:"steady_window_allocs"`
		SteadyWindows   int     `json:"steady_windows"`
	} `json:"lifecycle"`

	SpeedupSteady  float64 `json:"speedup_steady"`
	SpeedupShallow float64 `json:"speedup_shallow"`
}

// mallocs returns the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// benchKernelSteady runs the synthetic steady-state workload
// (SteadyStateWorkload constructs and runs to its event budget) and
// returns wall time and allocation count. Setup — the actor population
// and the wheel — is included but amortizes to noise over the budget.
func benchKernelSteady(actors int, events int64) (wall time.Duration, allocs uint64) {
	a0 := mallocs()
	start := time.Now()
	sim.SteadyStateWorkload(actors, events, 1)
	wall = time.Since(start)
	return wall, mallocs() - a0
}

// runBenchKernel measures the event kernel and the pooled packet
// lifecycle, then writes BENCH_kernel.json to path. steadyEvents is
// the -bench-events budget (validated >= 1 at flag parse time); the
// shallow workload scales with it at a 1:4 ratio.
func runBenchKernel(path string, steadyEvents int64, baseline string) error {
	shallowEvents := steadyEvents / 4
	if shallowEvents < 1 {
		shallowEvents = 1
	}

	var rep kernelReport
	rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	rep.GoVersion = runtime.Version()
	rep.CPUs = runtime.NumCPU()

	rep.Baseline.Commit = baselineCommit
	rep.Baseline.FEL = "binary heap"
	rep.Baseline.SteadyNsPerEvent = baselineSteadyNs
	rep.Baseline.SteadyEventsPerS = 1e9 / baselineSteadyNs
	rep.Baseline.ShallowNsPerEvent = baselineShallowNs

	// Warm up the process (scheduler, heap) before timing.
	benchKernelSteady(steadyActors, min(2_000_000, steadyEvents))

	wall, allocs := benchKernelSteady(steadyActors, steadyEvents)
	rep.Kernel.FEL = "timing wheel"
	rep.Kernel.Actors = steadyActors
	rep.Kernel.Events = steadyEvents
	rep.Kernel.WallNs = wall.Nanoseconds()
	rep.Kernel.NsPerEvent = float64(wall.Nanoseconds()) / float64(steadyEvents)
	rep.Kernel.EventsPerS = float64(steadyEvents) / wall.Seconds()
	rep.Kernel.AllocsPerEvent = float64(allocs) / float64(steadyEvents)

	shWall, _ := benchKernelSteady(shallowActors, shallowEvents)
	rep.Kernel.ShallowNsPerEvent = float64(shWall.Nanoseconds()) / float64(shallowEvents)

	if err := benchLifecycle(&rep); err != nil {
		return err
	}

	rep.SpeedupSteady = rep.Baseline.SteadyNsPerEvent / rep.Kernel.NsPerEvent
	rep.SpeedupShallow = rep.Baseline.ShallowNsPerEvent / rep.Kernel.ShallowNsPerEvent

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}

	// Ring-buffer history alongside the artifact: the run-report trend
	// block reads it to detect kernel drift across re-measurements.
	histPath := filepath.Join(filepath.Dir(path), "BENCH_history.json")
	if err := ibcc.AppendBenchHistory(histPath, ibcc.BenchPoint{
		GeneratedAt:  rep.GeneratedAt,
		GoVersion:    rep.GoVersion,
		NsPerEvent:   rep.Kernel.NsPerEvent,
		EventsPerSec: rep.Kernel.EventsPerS,
		Speedup:      rep.SpeedupSteady,
	}); err != nil {
		return err
	}

	fmt.Printf("kernel : %.1f ns/event (%.2fM events/s), %.4f allocs/event — %.2fx over %s baseline\n",
		rep.Kernel.NsPerEvent, rep.Kernel.EventsPerS/1e6, rep.Kernel.AllocsPerEvent,
		rep.SpeedupSteady, baselineCommit)
	fmt.Printf("shallow: %.1f ns/event — %.2fx over baseline\n",
		rep.Kernel.ShallowNsPerEvent, rep.SpeedupShallow)
	fmt.Printf("packets: %.0f ns/packet, %.2f events/packet, %.4f allocs/packet (%d steady-window allocs over %d windows)\n",
		rep.Lifecycle.NsPerPacket, rep.Lifecycle.EventsPerPacket, rep.Lifecycle.AllocsPerPkt,
		rep.Lifecycle.SteadyAllocs, rep.Lifecycle.SteadyWindows)
	fmt.Printf("wrote %s (history ring: %s)\n", path, histPath)

	if baseline != "" {
		return compareBenchBaseline(baseline, &rep, steadyEvents)
	}
	return nil
}

// compareBenchBaseline gates the fresh measurement against a committed
// BENCH_kernel.json: the lifecycle's events per packet may not exceed
// the committed value, and the steady-state kernel time may not regress
// by more than 10%. The timing comparison takes the best (lowest) of the
// recorded run and two repeats: scheduler noise on a busy box only
// ever slows a run down, so best-of damps false alarms without letting
// a genuine regression through.
func compareBenchBaseline(path string, rep *kernelReport, steadyEvents int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base kernelReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if base.Kernel.NsPerEvent <= 0 {
		return fmt.Errorf("%s: missing kernel.ns_per_event", path)
	}
	// Events per packet is a count the simulation makes, not a timing:
	// any rise means events that do nothing are being scheduled again.
	if b, f := base.Lifecycle.EventsPerPacket, rep.Lifecycle.EventsPerPacket; b > 0 && f > b {
		return fmt.Errorf("event-count regression: %.4f events/packet on %s vs committed %.4f (an exact count; no tolerance)",
			f, rep.Lifecycle.Scenario, b)
	}
	best := rep.Kernel.NsPerEvent
	for i := 0; i < 2; i++ {
		wall, _ := benchKernelSteady(steadyActors, steadyEvents)
		if ns := float64(wall.Nanoseconds()) / float64(steadyEvents); ns < best {
			best = ns
		}
	}
	limit := base.Kernel.NsPerEvent * benchGateRatio
	if best > limit {
		return fmt.Errorf("kernel regression: best-of-3 %.1f ns/event vs committed %.1f ns/event (limit %.1f, +10%%)",
			best, base.Kernel.NsPerEvent, limit)
	}
	fmt.Printf("gate   : best-of-3 %.1f ns/event within +10%% of committed %.1f (%s)\n",
		best, base.Kernel.NsPerEvent, path)
	return nil
}

// benchLifecycle measures the pooled gen → fabric → sink path: a
// radix-8 uniform-traffic scenario, warmed until every pool is primed,
// then fixed simulated windows timed and allocation-counted.
func benchLifecycle(rep *kernelReport) error {
	const (
		warm    = 1000 * sim.Microsecond
		window  = 50 * sim.Microsecond
		windows = 20
	)
	s := core.Default(8)
	s.Name = "bench-lifecycle"
	s.CCOn = false
	in, err := core.Build(s)
	if err != nil {
		return err
	}
	simr := in.Net.Sim()
	in.Net.Start()
	simr.RunUntil(sim.Time(0).Add(warm))

	rxBytes := func() uint64 {
		var sum uint64
		for lid := 0; lid < s.NumNodes(); lid++ {
			sum += in.Net.HCA(ib.LID(lid)).Counters().RxDataPayload
		}
		return sum
	}

	pre, ev0 := rxBytes(), simr.Processed()
	a0 := mallocs()
	start := time.Now()
	end := simr.Now()
	for i := 0; i < windows; i++ {
		end = end.Add(window)
		simr.RunUntil(end)
	}
	wall := time.Since(start)
	allocs := mallocs() - a0
	pkts := float64(rxBytes()-pre) / float64(ib.MTU)

	rep.Lifecycle.Scenario = s.Name
	rep.Lifecycle.Packets = pkts
	rep.Lifecycle.WallNs = wall.Nanoseconds()
	rep.Lifecycle.Events = simr.Processed() - ev0
	if pkts > 0 {
		rep.Lifecycle.NsPerPacket = float64(wall.Nanoseconds()) / pkts
		rep.Lifecycle.AllocsPerPkt = float64(allocs) / pkts
		rep.Lifecycle.EventsPerPacket = float64(rep.Lifecycle.Events) / pkts
	}
	st := in.Net.PacketPool().Stats()
	rep.Lifecycle.PoolGets = st.Gets
	rep.Lifecycle.PoolMisses = st.Misses
	rep.Lifecycle.SteadyAllocs = allocs
	rep.Lifecycle.SteadyWindows = windows
	return nil
}

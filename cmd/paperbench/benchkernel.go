package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	ibcc "repro"
	"repro/internal/cliflag"
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

// The wheel-versus-heap ratio's workload: TestKernelBenchGuard
// re-measures it with these numbers and gates it at the recorded ratio
// +10%.
const (
	ratioEvents = 500_000
	ratioPairs  = 16
)

// benchGateRatio is the regression margin: a fresh wheel-versus-heap
// ratio more than 10% above the committed BENCH_kernel.json's fails the
// bench-kernel -baseline compare (and `make bench-kernel-gate`), as it
// fails TestKernelBenchGuard.
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

	// WheelVsReference is the median over interleaved pairs of the
	// steady-state workload's time per event on the timing wheel divided
	// by its time on the reference heap (sim.WheelVsReference): the
	// host-independent figure TestKernelBenchGuard gates.
	WheelVsReference struct {
		Actors int     `json:"actors"`
		Events int64   `json:"events"`
		Pairs  int     `json:"pairs"`
		Ratio  float64 `json:"ratio"`
	} `json:"wheel_vs_reference"`

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
	return time.Since(start), mallocs() - a0
}

// benchKernelCmd registers the benchmark's flags; its body is
// runBenchKernel.
func benchKernelCmd(fs *flag.FlagSet, c *runConfig) (func() error, func(string) error) {
	events := fs.Int("events", 20_000_000, "steady-state event budget (the shallow workload runs a quarter of it)")
	baseline := fs.String("baseline", "", "gate the fresh wheel/reference-heap ratio and events per packet against this committed BENCH_kernel.json: fail on a >10% higher ratio or any rise in events per packet")
	return func() error { return cliflag.Positive("-events", *events) },
		func(path string) error { return runBenchKernel(c.w, path, int64(*events), *baseline) }
}

// runBenchKernel measures the event kernel and the pooled packet
// lifecycle, then writes BENCH_kernel.json to path. steadyEvents is
// the -events budget; the shallow workload scales with it at a 1:4
// ratio. With a baseline path it also gates the measurement against
// that committed copy.
func runBenchKernel(w io.Writer, path string, steadyEvents int64, baseline string) error {
	shallowEvents := max(steadyEvents/4, 1)

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

	wr := &rep.WheelVsReference
	wr.Actors, wr.Events, wr.Pairs = steadyActors, ratioEvents, ratioPairs
	wr.Ratio = sim.WheelVsReference(steadyActors, ratioEvents, ratioPairs)

	if err := benchLifecycle(&rep); err != nil {
		return err
	}

	rep.SpeedupSteady = rep.Baseline.SteadyNsPerEvent / rep.Kernel.NsPerEvent
	rep.SpeedupShallow = rep.Baseline.ShallowNsPerEvent / rep.Kernel.ShallowNsPerEvent

	if _, err := writeJSON(path, &rep); err != nil {
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

	fmt.Fprintf(w, "kernel : %.1f ns/event (%.2fM events/s), %.4f allocs/event — %.2fx over %s baseline\n",
		rep.Kernel.NsPerEvent, rep.Kernel.EventsPerS/1e6, rep.Kernel.AllocsPerEvent,
		rep.SpeedupSteady, baselineCommit)
	fmt.Fprintf(w, "shallow: %.1f ns/event — %.2fx over baseline\n",
		rep.Kernel.ShallowNsPerEvent, rep.SpeedupShallow)
	fmt.Fprintf(w, "ratio  : wheel/reference heap %.4f (median of %d pairs)\n", wr.Ratio, wr.Pairs)
	fmt.Fprintf(w, "packets: %.0f ns/packet, %.2f events/packet, %.4f allocs/packet (%d steady-window allocs over %d windows)\n",
		rep.Lifecycle.NsPerPacket, rep.Lifecycle.EventsPerPacket, rep.Lifecycle.AllocsPerPkt,
		rep.Lifecycle.SteadyAllocs, rep.Lifecycle.SteadyWindows)
	fmt.Fprintf(w, "wrote %s (history ring: %s)\n", path, histPath)

	if baseline != "" {
		return compareBenchBaseline(w, baseline, &rep)
	}
	return nil
}

// compareBenchBaseline gates the fresh measurement against a committed
// BENCH_kernel.json: the lifecycle's events per packet may not exceed
// the committed value, and the steady-state workload's time per event
// on the timing wheel over its time on the reference heap may not
// exceed the committed ratio by more than 10%. Both kernels are timed in
// this process, so a slower or busier host slows both and leaves the
// ratio alone; TestKernelBenchGuard makes the same check.
func compareBenchBaseline(w io.Writer, path string, rep *kernelReport) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base kernelReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	// Events per packet is a count the simulation makes, not a timing:
	// any rise means events that do nothing are being scheduled again.
	if b, f := base.Lifecycle.EventsPerPacket, rep.Lifecycle.EventsPerPacket; b > 0 && f > b {
		return fmt.Errorf("event-count regression: %.4f events/packet on %s vs committed %.4f (an exact count; no tolerance)",
			f, rep.Lifecycle.Scenario, b)
	}
	b, f := base.WheelVsReference, rep.WheelVsReference
	if b.Ratio <= 0 {
		return fmt.Errorf("%s: missing wheel_vs_reference.ratio", path)
	}
	if b.Actors != f.Actors || b.Events != f.Events || b.Pairs != f.Pairs {
		return fmt.Errorf("%s: ratio measured on %d actors, %d events, %d pairs; this build measures %d, %d, %d",
			path, b.Actors, b.Events, b.Pairs, f.Actors, f.Events, f.Pairs)
	}
	limit := b.Ratio * benchGateRatio
	if f.Ratio > limit {
		return fmt.Errorf("kernel regression: wheel/reference heap %.4f vs committed %.4f (limit %.4f, +10%%)",
			f.Ratio, b.Ratio, limit)
	}
	fmt.Fprintf(w, "gate   : wheel/reference heap %.4f within +10%% of committed %.4f (%s)\n",
		f.Ratio, b.Ratio, path)
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

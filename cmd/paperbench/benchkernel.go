package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/ckpt"
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
		// windows: exact, the same on every host and every run, so
		// TestLifecycleEventsPerPacket gates them with no tolerance.
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
	return func() error { return cliflag.Positive("-events", *events) },
		func(path string) error { return runBenchKernel(c.w, path, int64(*events)) }
}

// runBenchKernel measures the event kernel and the pooled packet
// lifecycle, writes BENCH_kernel.json to path and appends the kernel
// row to the BENCH_history.json beside it. steadyEvents is the -events
// budget; the shallow workload scales with it at a 1:4 ratio.
func runBenchKernel(w io.Writer, path string, steadyEvents int64) error {
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

	if err := writeJSON(path, &rep); err != nil {
		return err
	}

	histPath := filepath.Join(filepath.Dir(path), "BENCH_history.json")
	if err := appendHistory(histPath, struct {
		GeneratedAt  string  `json:"generated_at"`
		GoVersion    string  `json:"go_version"`
		NsPerEvent   float64 `json:"ns_per_event"`
		EventsPerSec float64 `json:"events_per_sec"`
		Speedup      float64 `json:"speedup_steady"`
	}{rep.GeneratedAt, rep.GoVersion, rep.Kernel.NsPerEvent, rep.Kernel.EventsPerS, rep.SpeedupSteady}); err != nil {
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
	fmt.Fprintf(w, "wrote %s (history row appended to %s)\n", path, histPath)
	return nil
}

// writeJSON writes v indented to path.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// appendHistory appends row to the BENCH_history.json ledger at path,
// creating it when missing. The ledger is append-only: the rows already
// there — this command's and scripts/bench_pairs.sh's — are kept byte
// for byte, and a file that is not a JSON array is an error that leaves
// it untouched. The write is atomic.
func appendHistory(path string, row any) error {
	var rows []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rows); err != nil {
			return fmt.Errorf("%s is not a JSON array of rows, left as it is: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	data, err := json.MarshalIndent(row, "  ", "  ")
	if err != nil {
		return err
	}
	parts := [][]byte{}
	for _, r := range rows {
		parts = append(parts, r)
	}
	parts = append(parts, data)
	return ckpt.WriteFileAtomic(path, fmt.Appendf(nil, "[\n  %s\n]\n", bytes.Join(parts, []byte(",\n  "))))
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

package core

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/sim"
)

// The bench guards assert the backend abstraction stayed off the hot
// path: interface dispatch must not regress the kernel's ratio to the
// reference heap recorded in BENCH_kernel.json, and stripping the
// mechanism out (nocc) must show up as a strict speedup over running it
// (ibcc) on an otherwise identical workload. Wall-clock tests are
// meaningless under the race detector or -short, so both guards skip
// there (`make check` runs the suite under -race; the plain `make test`
// and CI's untagged `go test ./...` exercise them).

// Workload of the wheel-versus-heap ratio; paperbench bench-kernel
// records its median ratio in BENCH_kernel.json with the same numbers.
const (
	ratioActors = 4096
	ratioEvents = 500_000
	ratioPairs  = 16
	ratioMargin = 1.10
)

// kernelBenchRatio reads wheel_vs_reference from the repo-root artifact.
func kernelBenchRatio(t *testing.T) float64 {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_kernel.json")
	if err != nil {
		t.Skipf("no bench baseline: %v", err)
	}
	var doc struct {
		WheelVsReference struct {
			Actors int     `json:"actors"`
			Events int64   `json:"events"`
			Pairs  int     `json:"pairs"`
			Ratio  float64 `json:"ratio"`
		} `json:"wheel_vs_reference"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("BENCH_kernel.json: %v", err)
	}
	w := doc.WheelVsReference
	if w.Ratio <= 0 {
		t.Fatal("BENCH_kernel.json: wheel_vs_reference.ratio missing (paperbench bench-kernel writes it)")
	}
	if w.Actors != ratioActors || w.Events != ratioEvents || w.Pairs != ratioPairs {
		t.Fatalf("BENCH_kernel.json: ratio measured on %d actors, %d events, %d pairs; the guard runs %d, %d, %d",
			w.Actors, w.Events, w.Pairs, ratioActors, ratioEvents, ratioPairs)
	}
	return w.Ratio
}

// TestKernelBenchGuard re-measures the steady-state kernel workload on
// the timing wheel against the reference binary heap, interleaved in
// this process, and holds the wheel's share of the heap's time per
// event within 10% of the ratio BENCH_kernel.json recorded. Both kernels
// dispatch the same actions, so a dispatch cost added to the wheel's
// hot path raises the ratio on any host, while a slower or busier host
// slows both.
func TestKernelBenchGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard is not short")
	}
	if raceEnabled {
		t.Skip("wall-clock guard is meaningless under -race")
	}
	recorded := kernelBenchRatio(t)
	ratio := sim.WheelVsReference(ratioActors, ratioEvents, ratioPairs)
	if limit := ratioMargin * recorded; ratio > limit {
		t.Errorf("kernel steady state: wheel/heap time per event %.4f, limit %.4f (recorded %.4f +10%%)",
			ratio, limit, recorded)
	}
}

// TestNoCCFasterThanIbccGuard times the per-event backend hot path —
// the exact call-site pattern the fabric and generators execute: a
// nil-guarded SwitchEnqueue hook, a nil-guarded Deliver hook, and a
// nil-guarded injection-gate IRD lookup. nocc resolves every one to a
// nil check; ibcc pays dispatch plus threshold compares and CCT
// bookkeeping, so doing nothing must come out strictly faster. (Whole-
// run wall time cannot express this: ibcc's throttling changes the
// event stream itself, usually shrinking it.)
func TestNoCCFasterThanIbccGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard is not short")
	}
	if raceEnabled {
		t.Skip("wall-clock guard is meaningless under -race")
	}
	hotPathNs := func(backend string) float64 {
		s := Default(8)
		s.CCOn = true
		s.Backend = backend
		in, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		hooks := in.Backend.Hooks()
		th := in.Backend.Throttle()
		pkt := &ib.Packet{Type: ib.DataPacket, Src: 1, Dst: 2, PayloadBytes: 2048}
		// Below-threshold queue state: the common (unmarked) case every
		// packet pays on every switch hop.
		st := fabric.PortVLState{QueuedBytes: 512, CreditBytes: 1 << 16, CapacityBytes: 1 << 17}
		const iters = 4_000_000
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				if hooks.SwitchEnqueue != nil {
					hooks.SwitchEnqueue(0, 0, pkt, st)
				}
				if hooks.Deliver != nil {
					hooks.Deliver(pkt.Dst, pkt)
				}
				if th != nil {
					_ = th.IRD(pkt.Src, pkt.Dst, pkt.WireBytes())
				}
			}
			ns := float64(time.Since(start).Nanoseconds()) / iters
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	nocc := hotPathNs("nocc")
	ibcc := hotPathNs("ibcc")
	if nocc >= ibcc {
		t.Errorf("nocc hot path %.3f ns/event not strictly faster than ibcc %.3f", nocc, ibcc)
	}
}

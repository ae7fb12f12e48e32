package metrics

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/topo"
)

// steadySource injects MTU packets to a fixed destination continuously.
type steadySource struct {
	src, dst ib.LID
	id       uint64
}

func (s *steadySource) Pull(now sim.Time) (*ib.Packet, sim.Time) {
	p := &ib.Packet{ID: s.id, Type: ib.DataPacket, Src: s.src, Dst: s.dst, PayloadBytes: ib.MTU}
	s.id++
	return p, 0
}

func buildPair(t *testing.T) *fabric.Network {
	t.Helper()
	tp, err := topo.SingleSwitch(4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := topo.ComputeLFT(tp)
	if err != nil {
		t.Fatal(err)
	}
	n, err := fabric.New(sim.New(), tp, r, fabric.DefaultConfig(), fabric.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCollectorExcludesWarmup(t *testing.T) {
	n := buildPair(t)
	n.HCA(0).SetSource(&steadySource{src: 0, dst: 1})
	warmup := sim.Time(1 * sim.Millisecond)
	c := NewCollector(n, warmup)
	n.Start()
	n.Sim().RunUntil(warmup.Add(2 * sim.Millisecond))
	r := c.Rates()
	if r.Window != 2*sim.Millisecond {
		t.Fatalf("window = %v", r.Window)
	}
	// Rate over the window must match the steady injection-limited
	// goodput; if warmup traffic leaked in, it would be ~1.5x higher.
	want := 13.5e9 * float64(ib.MTU) / float64(ib.MTU+ib.HeaderBytes)
	if got := r.RxPayload[1]; math.Abs(got-want)/want > 0.03 {
		t.Fatalf("rx rate = %.4g, want ~%.4g", got, want)
	}
	if r.TxPayload[0] < want*0.97 {
		t.Fatalf("tx rate = %.4g", r.TxPayload[0])
	}
	if r.RxWire[1] <= r.RxPayload[1] {
		t.Fatal("wire rate must exceed payload rate")
	}
	// Idle nodes measure zero.
	if r.RxPayload[3] != 0 || r.TxPayload[3] != 0 {
		t.Fatal("idle node shows traffic")
	}
}

func TestRatesPanicsBeforeSnapshot(t *testing.T) {
	n := buildPair(t)
	c := NewCollector(n, sim.Time(sim.Millisecond))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Rates()
}

func TestRatesPanicsOnEmptyWindow(t *testing.T) {
	n := buildPair(t)
	c := NewCollector(n, sim.Time(sim.Millisecond))
	n.Sim().RunUntil(sim.Time(sim.Millisecond))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Rates()
}

func TestAvgSum(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	if got := Sum(vals, nil); got != 10 {
		t.Fatalf("Sum all = %v", got)
	}
	if got := Avg(vals, nil); got != 2.5 {
		t.Fatalf("Avg all = %v", got)
	}
	lids := []ib.LID{1, 3}
	if got := Sum(vals, lids); got != 6 {
		t.Fatalf("Sum subset = %v", got)
	}
	if got := Avg(vals, lids); got != 3 {
		t.Fatalf("Avg subset = %v", got)
	}
	if got := Avg(vals, []ib.LID{}); got != 0 {
		t.Fatalf("Avg empty = %v", got)
	}
}

func TestPartition(t *testing.T) {
	in, out := Partition(5, map[ib.LID]bool{1: true, 4: true})
	if len(in) != 2 || in[0] != 1 || in[1] != 4 {
		t.Fatalf("in = %v", in)
	}
	if len(out) != 3 || out[0] != 0 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("out = %v", out)
	}
}

func TestGbps(t *testing.T) {
	if Gbps(2.5e9) != 2.5 {
		t.Fatal("Gbps conversion")
	}
}

func TestSummarize(t *testing.T) {
	r := NodeRates{
		Window:    sim.Millisecond,
		RxPayload: []float64{10e9, 1e9, 1e9, 2e9},
	}
	s := Summarize(r, map[ib.LID]bool{0: true})
	if s.HotspotAvgGbps != 10 {
		t.Fatalf("hotspot avg = %v", s.HotspotAvgGbps)
	}
	if math.Abs(s.NonHotspotAvgGbps-4.0/3) > 1e-9 {
		t.Fatalf("non-hotspot avg = %v", s.NonHotspotAvgGbps)
	}
	if s.AllAvgGbps != 3.5 || s.TotalGbps != 14 {
		t.Fatalf("summary = %+v", s)
	}
	str := s.String()
	if !strings.Contains(str, "total=14.0G") {
		t.Fatalf("String = %q", str)
	}
}

func TestCollectorLatency(t *testing.T) {
	n := buildPair(t)
	n.HCA(0).SetSource(&steadySource{src: 0, dst: 1})
	warmup := sim.Time(500 * sim.Microsecond)
	c := NewCollector(n, warmup)
	n.Start()
	n.Sim().RunUntil(warmup.Add(1 * sim.Millisecond))
	lat := c.Latency()
	if lat.Count == 0 {
		t.Fatal("no latency samples")
	}
	// Uncongested single flow: ~1.5us network latency.
	if lat.Mean < sim.Microsecond || lat.Mean > 4*sim.Microsecond {
		t.Fatalf("mean latency = %v", lat.Mean)
	}
	if lat.P50 <= 0 || lat.P99 < lat.P50 || lat.Max < lat.Mean {
		t.Fatalf("quantile ordering broken: %+v", lat)
	}
	// Warmup samples are excluded: the count matches the window's
	// delivered packets, not the whole run's.
	total := n.HCA(1).Counters().Latency.Count
	if lat.Count >= total {
		t.Fatalf("warmup not excluded: %d of %d", lat.Count, total)
	}
	s := lat.String()
	if !strings.Contains(s, "p99") {
		t.Fatalf("String = %q", s)
	}
}

func TestLatencyPanicsBeforeSnapshot(t *testing.T) {
	n := buildPair(t)
	c := NewCollector(n, sim.Time(sim.Millisecond))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Latency()
}

func TestPercentiles(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	got := Percentiles(vals, 0, 50, 100)
	if got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("percentiles = %v", got)
	}
	// Inputs untouched.
	if vals[0] != 5 {
		t.Fatal("input mutated")
	}
	if got := Percentiles(nil, 50); got[0] != 0 {
		t.Fatal("empty input")
	}
	got = Percentiles(vals, -5, 200)
	if got[0] != 1 || got[1] != 5 {
		t.Fatalf("clamped percentiles = %v", got)
	}
}

func TestJain(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"all-zero", []float64{0, 0, 0}, 1},
		{"single-zero", []float64{0}, 1},
		{"equal", []float64{5, 5, 5, 5}, 1},
		{"one-takes-all", []float64{8, 0, 0, 0}, 0.25},
		{"two-to-one", []float64{2, 1}, 0.9},
		{"single", []float64{3}, 1},
	}
	for _, c := range cases {
		if got := Jain(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: Jain = %v, want %v", c.name, got, c.want)
		}
	}
}

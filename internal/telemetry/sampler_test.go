package telemetry

import (
	"strings"
	"testing"

	"repro/internal/ib"
	"repro/internal/obs"
	"repro/internal/sim"
)

func dataPacket(src, dst ib.LID, msgID uint64, seq, total uint8, inject sim.Time, hotspot bool) *ib.Packet {
	return &ib.Packet{
		ID: msgID<<8 | uint64(seq), Type: ib.DataPacket, Src: src, Dst: dst,
		PayloadBytes: ib.MTU, Hotspot: hotspot,
		MsgID: msgID, MsgSeq: seq, MsgPackets: total, InjectTime: inject,
	}
}

func TestSamplerSeries(t *testing.T) {
	b := obs.New()
	s := NewSampler("run-a", 10*sim.Microsecond)
	s.Attach(b)

	// Two delivered data packets in bin 0 (one hotspot), a control packet,
	// a queue movement, and a CCTI ramp.
	p1 := dataPacket(1, 9, 1, 0, 2, sim.Time(0), true)
	b.PacketDelivered(sim.Time(2*sim.Microsecond), 9, p1)
	p2 := dataPacket(2, 8, 5, 0, 1, sim.Time(1*sim.Microsecond), false)
	b.PacketDelivered(sim.Time(3*sim.Microsecond), 8, p2)
	cnp := &ib.Packet{Type: ib.CNPPacket, Src: 9, Dst: 1}
	b.PacketDelivered(sim.Time(4*sim.Microsecond), 1, cnp)
	b.QueueSampled(sim.Time(5*sim.Microsecond), 3, 2, true, 0, 6000)
	b.CCTIChanged(sim.Time(6*sim.Microsecond), 1, 9, 0, 4)
	b.CreditStalled(sim.Time(7*sim.Microsecond), true, 3, 2, 0, 10, 2094)

	// Crossing into bin 1 flushes bin 0.
	p3 := dataPacket(1, 9, 1, 1, 2, sim.Time(500*sim.Nanosecond), true)
	b.MsgCompleted(sim.Time(14*sim.Microsecond), 9, p3)
	s.Finish()

	snap := s.Snapshot()
	if snap.Name != "run-a" || snap.CadenceUS != 10 {
		t.Fatalf("identity wrong: %+v", snap)
	}
	if n := snap.HotspotGbps.V; len(n) < 1 {
		t.Fatalf("no hotspot rate points")
	}
	// Bin 0: one hotspot MTU payload in 10 µs = 2048*8/10e-6 bits/s.
	wantHot := float64(ib.MTU) * 8 / 10e-6 / 1e9
	if got := snap.HotspotGbps.V[0]; !near(got, wantHot, 1e-9) {
		t.Fatalf("hotspot rate = %v, want %v", got, wantHot)
	}
	if got := snap.OtherGbps.V[0]; !near(got, wantHot, 1e-9) {
		t.Fatalf("other rate = %v, want %v", got, wantHot)
	}
	wantCtl := float64(ib.CNPBytes+ib.HeaderBytes) * 8 / 10e-6 / 1e9
	if got := snap.ControlGbps.V[0]; !near(got, wantCtl, 1e-9) {
		t.Fatalf("control rate = %v, want %v", got, wantCtl)
	}
	if got := snap.QueuedKB.V[0]; !near(got, 6000.0/1024, 1e-9) {
		t.Fatalf("queued = %v", got)
	}
	if got := snap.Throttled.V[0]; got != 1 {
		t.Fatalf("throttled = %v", got)
	}
	if got := snap.MaxCCTI.V[0]; got != 4 {
		t.Fatalf("max ccti = %v", got)
	}
	if got := snap.Stalls.V[0]; got != 1 {
		t.Fatalf("stalls = %v", got)
	}

	// The message span runs from the seq-0 packet's injection (t=0) to
	// the completion delivery at 14 µs.
	if snap.Completion.Count != 1 {
		t.Fatalf("completion count = %d", snap.Completion.Count)
	}
	if p50 := snap.Completion.P50; p50 < 14 || p50 > 15 {
		t.Fatalf("completion p50 = %v µs, want ~14 (within bucket bound)", p50)
	}

	if len(snap.HotPorts) != 1 || snap.HotPorts[0].Switch != 3 || snap.HotPorts[0].Port != 2 || !snap.HotPorts[0].HostPort {
		t.Fatalf("hot ports = %+v", snap.HotPorts)
	}
}

func near(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}

func TestSamplerFallbackCompletionSpan(t *testing.T) {
	b := obs.New()
	s := NewSampler("run-b", 0)
	s.Attach(b)
	// A completion whose seq-0 delivery was never seen falls back to the
	// final packet's own injection time.
	p := dataPacket(2, 7, 9, 1, 2, sim.Time(3*sim.Microsecond), false)
	b.MsgCompleted(sim.Time(8*sim.Microsecond), 7, p)
	s.Finish()
	c := s.Completion()
	if c.Count != 1 {
		t.Fatalf("count = %d", c.Count)
	}
	if c.P50 < 5 || c.P50 > 5.5 {
		t.Fatalf("fallback span p50 = %v µs, want ~5", c.P50)
	}
}

func TestSamplerLinkState(t *testing.T) {
	b := obs.New()
	s := NewSampler("run-c", 0)
	s.Attach(b)
	b.LinkDown(sim.Time(1), true, 0, 1)
	b.LinkDown(sim.Time(2), true, 0, 2)
	b.LinkUp(sim.Time(3), true, 0, 1)
	p := &ib.Packet{ID: 1, Type: ib.DataPacket}
	b.PacketDropped(sim.Time(4), true, 0, 2, p, 0, 2094)
	s.Finish()
	snap := s.Snapshot()
	if snap.LinksDown != 1 {
		t.Fatalf("links down = %d", snap.LinksDown)
	}
	if got := snap.Drops.V[len(snap.Drops.V)-1]; got != 1 {
		t.Fatalf("drops = %v", got)
	}
}

// TestSamplerCCTITable checks the CCTI-over-time view against a
// hand-built step sequence: flow 1->9 ramps to 3 then decays, flow 2->9
// reaches 1 and recovers.
func TestSamplerCCTITable(t *testing.T) {
	b := obs.New()
	s := NewSampler("ccti", sim.Microsecond)
	s.Attach(b)
	us := func(f float64) sim.Time { return sim.Time(f * float64(sim.Microsecond)) }
	b.CCTIChanged(us(1.0), 1, 9, 0, 2) // a bin includes its end instant
	b.CCTIChanged(us(1.5), 2, 9, 0, 1)
	b.CCTIChanged(us(2.5), 1, 9, 2, 3)
	b.CCTIChanged(us(3.5), 1, 9, 3, 2)
	b.CCTIChanged(us(3.6), 2, 9, 1, 0)
	s.Finish()
	snap := s.Snapshot()
	if got := snap.CCTIIncr.Sum() + snap.CCTIDecr.Sum(); got != 5 {
		t.Fatalf("%v steps recorded, want 5", got)
	}

	var sb strings.Builder
	if err := snap.WriteCCTITable(&sb); err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		rows = append(rows, strings.Fields(line))
	}
	want := [][]string{
		{"t", "incr", "decr", "flows", "maxCCTI", "meanCCTI"},
		{"1us", "1", "0", "1", "2", "2.00"},
		{"2us", "1", "0", "2", "2", "1.50"},
		{"3us", "1", "0", "2", "3", "2.00"},
		{"4us", "0", "2", "1", "2", "2.00"},
	}
	if len(rows) != len(want) {
		t.Fatalf("table has %d lines, want %d:\n%s", len(rows), len(want), sb.String())
	}
	for i := range want {
		if strings.Join(rows[i], " ") != strings.Join(want[i], " ") {
			t.Errorf("line %d = %v, want %v", i, rows[i], want[i])
		}
	}
}

// TestSamplerViewsOfEmptyRun: a sampler that saw nothing renders empty
// tables — headers only, no error.
func TestSamplerViewsOfEmptyRun(t *testing.T) {
	s := NewSampler("empty", 0)
	s.Finish()
	snap := s.Snapshot()
	var csv, tab strings.Builder
	if err := snap.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteCCTITable(&tab); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(csv.String(), "\n"); n != 1 || !strings.HasPrefix(csv.String(), "time_s,hotspot_gbps,") {
		t.Fatalf("CSV = %q", csv.String())
	}
	if n := strings.Count(tab.String(), "\n"); n != 1 {
		t.Fatalf("table = %q", tab.String())
	}
}

// TestSamplerGapFill: an event landing several bins ahead emits the idle
// bins in between with zero rates and carried-forward state, and a gap
// longer than the ring emits no more than the ring holds.
func TestSamplerGapFill(t *testing.T) {
	b := obs.New()
	s := NewSampler("gap", 10*sim.Microsecond)
	s.Attach(b)
	b.QueueSampled(sim.Time(2*sim.Microsecond), 3, 2, true, 0, 4096)
	b.CCTIChanged(sim.Time(3*sim.Microsecond), 1, 9, 0, 5)
	b.PacketDelivered(sim.Time(4*sim.Microsecond), 8, dataPacket(2, 8, 5, 0, 1, 0, false))
	b.LinkDown(sim.Time(5*sim.Microsecond), true, 3, 2)
	b.LinkUp(sim.Time(45*sim.Microsecond), true, 3, 2) // bin 4: bins 1..3 are idle
	s.Finish()
	snap := s.Snapshot()
	if got := snap.OtherGbps.TUS; len(got) != 5 || got[0] != 10 || got[4] != 50 {
		t.Fatalf("grid = %v, want 10..50 µs", got)
	}
	for i := 1; i <= 3; i++ {
		if snap.OtherGbps.V[i] != 0 {
			t.Errorf("idle bin %d carries rate %v", i, snap.OtherGbps.V[i])
		}
		if snap.QueuedKB.V[i] != 4 || snap.MaxCCTI.V[i] != 5 || snap.Throttled.V[i] != 1 {
			t.Errorf("idle bin %d lost state: queued %v, max CCTI %v, throttled %v",
				i, snap.QueuedKB.V[i], snap.MaxCCTI.V[i], snap.Throttled.V[i])
		}
	}

	// 10 000 bins ahead: the ring is full of the newest idle bins and
	// the walk was bounded by its capacity, not the gap.
	b, s = obs.New(), NewSampler("long gap", 10*sim.Microsecond)
	s.Attach(b)
	b.LinkDown(sim.Time(5*sim.Microsecond), true, 3, 2)
	b.LinkUp(sim.Time(100*sim.Millisecond), true, 3, 2)
	snap = s.Snapshot()
	tus := snap.Stalls.TUS
	if len(tus) != RingCap || tus[RingCap-1] != 1e5-10 || tus[0] != 1e5-10*RingCap {
		t.Fatalf("after a long gap the ring spans [%v, %v] µs over %d points", tus[0], tus[len(tus)-1], len(tus))
	}
}

// TestSamplerDetachedZeroCost asserts the acceptance criterion: with no
// sampler attached, the fabric's telemetry publish sites cost nothing —
// the bus mask check returns before event construction, 0 allocs/op.
func TestSamplerDetachedZeroCost(t *testing.T) {
	bus := obs.New() // no subscribers at all
	p := dataPacket(1, 2, 3, 1, 2, sim.Time(10), false)
	if a := testing.AllocsPerRun(200, func() {
		bus.PacketDelivered(sim.Time(100), 2, p)
		bus.MsgCompleted(sim.Time(100), 2, p)
		bus.QueueSampled(sim.Time(100), 0, 1, false, 0, 512)
	}); a != 0 {
		t.Fatalf("detached-sampler publish allocated %v/op", a)
	}
	var nilBus *obs.Bus
	if a := testing.AllocsPerRun(200, func() {
		nilBus.MsgCompleted(sim.Time(100), 2, p)
	}); a != 0 {
		t.Fatalf("nil-bus publish allocated %v/op", a)
	}
}

// BenchmarkSamplerDetached is the bench-guarded form of the zero-cost
// criterion; run with -benchmem and expect 0 B/op, 0 allocs/op.
func BenchmarkSamplerDetached(b *testing.B) {
	bus := obs.New()
	p := dataPacket(1, 2, 3, 1, 2, sim.Time(10), false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.PacketDelivered(sim.Time(100), 2, p)
		bus.MsgCompleted(sim.Time(100), 2, p)
		bus.QueueSampled(sim.Time(100), 0, 1, false, 0, 512)
	}
}

// BenchmarkSamplerAttached measures the per-event cost with a live
// sampler, for the DESIGN.md overhead table.
func BenchmarkSamplerAttached(b *testing.B) {
	bus := obs.New()
	s := NewSampler("bench", 0)
	s.Attach(bus)
	p := dataPacket(1, 2, 3, 0, 2, sim.Time(10), false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.PacketDelivered(sim.Time(int64(i)*1000), 2, p)
	}
}

// TestSamplerPortsOutOfOrder: queue samples may name the highest switch
// first, sparse ports and the last data VL; per-port depth is the sum
// over lanes, the series read the table's totals, and the hot-port table
// breaks peak ties in (switch, port) order.
func TestSamplerPortsOutOfOrder(t *testing.T) {
	b := obs.New()
	s := NewSampler("sparse", 10*sim.Microsecond)
	s.Attach(b)
	us := func(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Microsecond) }

	b.QueueSampled(us(1), 40, 35, true, 14, 4096)
	b.QueueSampled(us(2), 40, 35, true, 0, 2048) // second lane of the same port
	b.QueueSampled(us(3), 2, 7, false, 3, 6144)
	b.QueueSampled(us(4), 40, 1, false, 0, 6144) // ties with 2.7
	b.QueueSampled(us(5), 0, 20, false, 14, 1024)
	b.QueueSampled(us(6), 40, 35, false, 14, 0) // lane drains; peak and its flag stay
	b.QueueSampled(us(7), 5, 5, false, 200, 1<<20)
	s.Finish()

	snap := s.Snapshot()
	if got := snap.QueuedKB.V[0]; got != (2048+6144+6144+1024)/1024.0 {
		t.Fatalf("queued = %v KB", got)
	}
	if got := snap.MaxPortKB.V[0]; got != 6 {
		t.Fatalf("max port = %v KB", got)
	}
	want := []HotPort{
		{Switch: 2, Port: 7, PeakKB: 6},
		{Switch: 40, Port: 1, PeakKB: 6},
		{Switch: 40, Port: 35, HostPort: true, PeakKB: 6},
		{Switch: 0, Port: 20, PeakKB: 1},
	}
	if len(snap.HotPorts) != len(want) {
		t.Fatalf("hot ports = %+v", snap.HotPorts)
	}
	for i := range want {
		if snap.HotPorts[i] != want[i] {
			t.Fatalf("hot ports = %+v, want %+v", snap.HotPorts, want)
		}
	}

	// The hub keeps the higher peak per port across runs; a second run
	// is a second bus, since depths and peaks live on the bus.
	h := NewHub(0)
	s2 := h.StartRun("second")
	b2 := obs.New()
	s2.Attach(b2)
	h.FinishRun(s)
	b2.QueueSampled(us(20), 0, 20, true, 1, 8192)
	b2.QueueSampled(us(21), 40, 35, false, 0, 1024)
	h.FinishRun(s2)
	hot := h.Snapshot().HotPorts
	if len(hot) != 4 || hot[0] != (HotPort{Switch: 0, Port: 20, HostPort: true, PeakKB: 8}) || hot[3] != want[2] {
		t.Fatalf("hub hot ports = %+v", hot)
	}
}

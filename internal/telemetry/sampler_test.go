package telemetry

import (
	"runtime"
	"strconv"
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

	// Two delivered data packets in bin 0 (one hotspot), each opening a
	// two-packet message, a control packet, a queue movement, and a CCTI
	// ramp.
	p1 := dataPacket(1, 9, 1, 0, 2, sim.Time(0), true)
	b.PacketDelivered(sim.Time(2*sim.Microsecond), 9, p1)
	p2 := dataPacket(2, 8, 5, 0, 2, sim.Time(1*sim.Microsecond), false)
	b.PacketDelivered(sim.Time(3*sim.Microsecond), 8, p2)
	cnp := &ib.Packet{Type: ib.CNPPacket, Src: 9, Dst: 1}
	b.PacketDelivered(sim.Time(4*sim.Microsecond), 1, cnp)
	b.QueueSampled(sim.Time(5*sim.Microsecond), 3, 2, true, 0, 6000)
	b.CCTIChanged(sim.Time(6*sim.Microsecond), 1, 9, 0, 4)
	b.CreditStalled(sim.Time(7*sim.Microsecond), true, 3, 2, 0, 10, 2094)

	// Crossing into bin 1 flushes bin 0. The final packet is published
	// as the sink publishes it: delivered, then completed.
	p3 := dataPacket(1, 9, 1, 1, 2, sim.Time(500*sim.Nanosecond), true)
	b.PacketDelivered(sim.Time(14*sim.Microsecond), 9, p3)
	b.MsgCompleted(sim.Time(14*sim.Microsecond), 9, p3)
	s.Finish()

	snap := s.Snapshot()
	if snap.Name != "run-a" || snap.CadenceUS != 10 {
		t.Fatalf("identity wrong: %+v", snap)
	}
	if len(snap.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(snap.Rows))
	}
	// Bin 0: one hotspot MTU payload in 10 µs = 2048*8/10e-6 bits/s.
	r := snap.Rows[0]
	wantHot := float64(ib.MTU) * 8 / 10e-6 / 1e9
	if got := r.HotspotGbps; !near(got, wantHot, 1e-9) {
		t.Fatalf("hotspot rate = %v, want %v", got, wantHot)
	}
	if got := r.OtherGbps; !near(got, wantHot, 1e-9) {
		t.Fatalf("other rate = %v, want %v", got, wantHot)
	}
	wantCtl := float64(ib.CNPBytes+ib.HeaderBytes) * 8 / 10e-6 / 1e9
	if got := r.ControlGbps; !near(got, wantCtl, 1e-9) {
		t.Fatalf("control rate = %v, want %v", got, wantCtl)
	}
	if got := r.QueuedKB; !near(got, 6000.0/1024, 1e-9) {
		t.Fatalf("queued = %v", got)
	}
	if got := r.Throttled; got != 1 {
		t.Fatalf("throttled = %v", got)
	}
	if got := r.MaxCCTI; got != 4 {
		t.Fatalf("max ccti = %v", got)
	}
	if got := r.Stalls; got != 1 {
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
	b.PacketDelivered(sim.Time(8*sim.Microsecond), 7, p)
	b.MsgCompleted(sim.Time(8*sim.Microsecond), 7, p)
	s.Finish()
	c := s.Snapshot().Completion
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
	if got := snap.Rows[len(snap.Rows)-1].Drops; got != 1 {
		t.Fatalf("drops = %v", got)
	}
}

// TestSamplerCCTITable checks the CSV's CCTI columns against a
// hand-built step sequence: flow 1->9 ramps to 3 then decays, flow 2->9
// reaches 1 and recovers. Per bin the increase and decrease counts sum
// to the steps recorded, next to the throttled flows and the max and
// mean CCTI at the bin's close.
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
	var recorded float64
	for _, r := range snap.Rows {
		recorded += r.CCTIIncr + r.CCTIDecr
	}
	if recorded != 5 {
		t.Fatalf("%v steps recorded, want 5", recorded)
	}

	var sb strings.Builder
	if err := snap.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	col := map[string]int{}
	for i, name := range strings.Split(lines[0], ",") {
		col[name] = i
	}
	names := []string{"time_s", "ccti_incr", "ccti_decr", "throttled", "max_ccti", "mean_ccti"}
	want := [][]string{
		{"1e-06", "1", "0", "1", "2", "2"},
		{"2e-06", "1", "0", "2", "2", "1.5"},
		{"3e-06", "1", "0", "2", "3", "2"},
		{"4e-06", "0", "2", "1", "2", "2"},
	}
	if len(lines) != 1+len(want) {
		t.Fatalf("CSV has %d lines, want %d:\n%s", len(lines), 1+len(want), sb.String())
	}
	steps := 0
	for i, w := range want {
		fields := strings.Split(lines[1+i], ",")
		got := make([]string, len(names))
		for j, name := range names {
			k, ok := col[name]
			if !ok {
				t.Fatalf("no %s column in header %q", name, lines[0])
			}
			got[j] = fields[k]
		}
		if strings.Join(got, " ") != strings.Join(w, " ") {
			t.Errorf("bin %d: %v = %v, want %v", i, names, got, w)
		}
		for _, f := range got[1:3] {
			n, _ := strconv.Atoi(f)
			steps += n
		}
	}
	if steps != 5 {
		t.Errorf("ccti_incr + ccti_decr columns sum to %d, want the 5 steps", steps)
	}
}

// TestSamplerViewsOfEmptyRun: a sampler that saw nothing renders an
// empty table — the header only, no error.
func TestSamplerViewsOfEmptyRun(t *testing.T) {
	s := NewSampler("empty", 0)
	s.Finish()
	snap := s.Snapshot()
	var csv strings.Builder
	if err := snap.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(csv.String(), "\n"); n != 1 || !strings.HasPrefix(csv.String(), "time_s,hotspot_gbps,") {
		t.Fatalf("CSV = %q", csv.String())
	}
}

// TestSamplerGapFill: an event landing several bins ahead emits the idle
// bins in between with zero rates and carried-forward state, however
// long the gap.
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
	if rows := snap.Rows; len(rows) != 5 || rows[0].EndUS != 10 || rows[4].EndUS != 50 {
		t.Fatalf("grid = %+v, want 10..50 µs", rows)
	}
	for i, r := range snap.Rows[1:4] {
		if r.OtherGbps != 0 {
			t.Errorf("idle bin %d carries rate %v", i+1, r.OtherGbps)
		}
		if r.QueuedKB != 4 || r.MaxCCTI != 5 || r.Throttled != 1 {
			t.Errorf("idle bin %d lost state: queued %v, max CCTI %v, throttled %v",
				i+1, r.QueuedKB, r.MaxCCTI, r.Throttled)
		}
	}

	// 100 ms of silence at 10 µs: every one of the 10 000 bins is kept,
	// on the grid, idle.
	b, s = obs.New(), NewSampler("long gap", 10*sim.Microsecond)
	s.Attach(b)
	b.LinkDown(sim.Time(5*sim.Microsecond), true, 3, 2)
	b.LinkUp(sim.Time(100*sim.Millisecond), true, 3, 2)
	s.Finish()
	snap = s.Snapshot()
	if len(snap.Rows) != 10000 {
		t.Fatalf("a 100 ms gap kept %d rows, want 10000", len(snap.Rows))
	}
	for i, r := range snap.Rows {
		if r.EndUS != float64(i+1)*10 || r.Stalls != 0 || r.OtherGbps != 0 {
			t.Fatalf("row %d = %+v, want an idle bin ending at %v µs", i, r, (i+1)*10)
		}
	}
}

// TestSamplerKeepsWholeRun: a 12 ms run at 10 µs keeps all 1 200 bins,
// from the one ending at 10 µs to the one ending at 12 000 µs, and
// keeping them costs one growing slice of rows — a handful of
// allocations, where a slice per series would take hundreds.
func TestSamplerKeepsWholeRun(t *testing.T) {
	b := obs.New()
	s := NewSampler("whole run", 10*sim.Microsecond)
	s.Attach(b)
	p := dataPacket(2, 8, 5, 0, 1, 0, false)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range 1200 {
		b.PacketDelivered(sim.Time(int64(i)*int64(10*sim.Microsecond)+1), 8, p)
	}
	s.Finish()
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n > 20 {
		t.Errorf("1 200 bins took %d allocations, want <= 20", n)
	}

	rows := s.Snapshot().Rows
	if len(rows) != 1200 || rows[0].EndUS != 10 || rows[1199].EndUS != 12000 {
		t.Fatalf("%d rows spanning [%v, %v] µs, want 1200 spanning [10, 12000]",
			len(rows), rows[0].EndUS, rows[len(rows)-1].EndUS)
	}
	want := float64(ib.MTU) * 8 / 10e-6 / 1e9
	for i, r := range rows {
		if !near(r.OtherGbps, want, 1e-9) {
			t.Fatalf("row %d: %v Gbps, want %v", i, r.OtherGbps, want)
		}
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
	if got := snap.Rows[0].QueuedKB; got != (2048+6144+6144+1024)/1024.0 {
		t.Fatalf("queued = %v KB", got)
	}
	if got := snap.Rows[0].MaxPortKB; got != 6 {
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

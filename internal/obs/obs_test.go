package obs

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/ib"
	"repro/internal/sim"
)

func pkt(src, dst ib.LID) *ib.Packet {
	return &ib.Packet{ID: 7, Type: ib.DataPacket, Src: src, Dst: dst, PayloadBytes: 2048}
}

func TestBusDispatchPerKind(t *testing.T) {
	b := New()
	var sent, marked, all int
	b.Subscribe(ConsumerFunc(func(e Event) { sent++ }), KindPacketSent)
	b.Subscribe(ConsumerFunc(func(e Event) { marked++ }), KindFECNMarked)
	b.Subscribe(ConsumerFunc(func(e Event) { all++ }))

	b.PacketSent(0, true, 3, 1, pkt(1, 2))
	b.PacketSent(1, false, 4, 0, pkt(4, 2))
	b.FECNMarked(2, 3, 1, true, pkt(1, 2), 9000, 100)
	b.BECNReturned(3, 1, 2, nil)
	b.CCTIChanged(4, 1, 2, 0, 4)
	b.CreditStalled(5, true, 3, 1, 0, 10, 2094)
	b.QueueSampled(6, 3, 1, false, 0, 4096)
	b.PacketDelivered(7, 2, pkt(1, 2))

	if sent != 2 || marked != 1 || all != 8 {
		t.Fatalf("dispatch counts sent=%d marked=%d all=%d", sent, marked, all)
	}
}

func TestBusEventFields(t *testing.T) {
	b := New()
	var got []Event
	b.Subscribe(ConsumerFunc(func(e Event) { got = append(got, e) }))

	p := pkt(5, 9)
	p.FECN = true
	b.FECNMarked(42, 2, 6, true, p, 12000, 64)
	b.CCTIChanged(43, 5, 9, 3, 7)

	if len(got) != 2 {
		t.Fatalf("events = %d", len(got))
	}
	m := got[0]
	if m.Kind != KindFECNMarked || !m.Switch || m.Node != 2 || m.Port != 6 ||
		!m.HostPort || m.Src != 5 || m.Dst != 9 || m.QueuedBytes != 12000 ||
		m.CreditBytes != 64 || !m.FECN || m.Time != 42 {
		t.Fatalf("mark event = %+v", m)
	}
	if f := m.Flow(); f.Src != 5 || f.Dst != 9 {
		t.Fatalf("flow = %v", f)
	}
	c := got[1]
	if c.Kind != KindCCTIChanged || c.OldCCTI != 3 || c.NewCCTI != 7 || c.Node != 5 {
		t.Fatalf("ccti event = %+v", c)
	}
}

func TestNilBusIsDisabled(t *testing.T) {
	var b *Bus
	if b.Wants(KindPacketSent) {
		t.Fatal("nil bus wants events")
	}
	// Every helper must be a no-op on a nil bus.
	b.PacketSent(0, true, 0, 0, pkt(0, 1))
	b.PacketDelivered(0, 0, pkt(0, 1))
	b.FECNMarked(0, 0, 0, false, pkt(0, 1), 0, 0)
	b.BECNReturned(0, 0, 1, nil)
	b.CCTIChanged(0, 0, 1, 0, 1)
	b.CreditStalled(0, false, 0, 0, 0, 0, 0)
	b.QueueSampled(0, 0, 0, false, 0, 0)
}

func TestWantsFollowsSubscriptions(t *testing.T) {
	b := New()
	if b.Wants(KindPacketSent) {
		t.Fatal("fresh bus wants events")
	}
	b.Subscribe(ConsumerFunc(func(Event) {}), KindQueueSampled)
	if !b.Wants(KindQueueSampled) || b.Wants(KindPacketSent) {
		t.Fatal("mask wrong after subscribe")
	}
	// The aggregate tier wants what it counts — fabric/fault.go gates its
	// dropped-credit publishes on Wants(KindPacketDropped) — but builds
	// no Event for it.
	b.Registry()
	for _, k := range []Kind{KindPacketSent, KindPacketDelivered, KindFECNMarked, KindCreditStalled, KindPacketDropped} {
		if !b.Wants(k) || b.Streams(k) {
			t.Fatalf("%v with only the aggregate tier on: wants %v, streams %v", k, b.Wants(k), b.Streams(k))
		}
	}
	if !b.Streams(KindQueueSampled) || b.Wants(KindCCTIChanged) || b.Wants(KindLinkDown) {
		t.Fatal("mask wrong after Registry")
	}
}

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "Kind(") || seen[s] {
			t.Fatalf("kind %d string %q", k, s)
		}
		seen[s] = true
	}
}

// forwardPath mimics the per-hop publish sequence of the fabric's
// packet-forward path: an enqueue sample, a departure sample, a wire
// transmission, and the occasional stall probe.
func forwardPath(b *Bus, p *ib.Packet, t sim.Time) {
	b.QueueSampled(t, 3, 1, false, p.VL, 4096)
	b.QueueSampled(t, 3, 1, false, p.VL, 2048)
	b.PacketSent(t, true, 3, 1, p)
	b.CreditStalled(t, true, 3, 2, p.VL, 10, 2094)
	b.PacketDelivered(t, p.Dst, p)
}

// TestDisabledBusAllocs enforces the flight recorder's core contract in
// the ordinary test run: with no bus (and with a bus nobody subscribed
// to) the forward-path publish sequence performs zero allocations.
func TestDisabledBusAllocs(t *testing.T) {
	p := pkt(1, 2)
	var nilBus *Bus
	if a := testing.AllocsPerRun(200, func() { forwardPath(nilBus, p, 5) }); a != 0 {
		t.Fatalf("nil bus: %v allocs/op on the forward path", a)
	}
	empty := New()
	if a := testing.AllocsPerRun(200, func() { forwardPath(empty, p, 5) }); a != 0 {
		t.Fatalf("subscriber-less bus: %v allocs/op on the forward path", a)
	}
}

// BenchmarkBusDisabled measures the disabled-bus overhead of the
// packet-forward publish sequence; run with -benchmem to see the
// enforced 0 allocs/op.
func BenchmarkBusDisabled(b *testing.B) {
	p := pkt(1, 2)
	var bus *Bus
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		forwardPath(bus, p, sim.Time(i))
	}
}

// BenchmarkBusAggregates is the cheap-when-on counterpart: the same
// sequence with only the aggregate tier on (what a checker and a sampler
// leave the per-hop kinds with), which must also report 0 allocs/op —
// no Event is built. TestAggregateTierAllocs enforces it.
func BenchmarkBusAggregates(b *testing.B) {
	bus := New()
	bus.Registry()
	p := pkt(1, 2)
	forwardPath(bus, p, 0) // grow the table outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forwardPath(bus, p, sim.Time(i))
	}
}

// BenchmarkBusStream is the stream tier on the same sequence: one
// consumer of every kind, an Event built and handed over per publish.
func BenchmarkBusStream(b *testing.B) {
	bus := New()
	var n int
	bus.Subscribe(ConsumerFunc(func(Event) { n++ }))
	p := pkt(1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		forwardPath(bus, p, sim.Time(i))
	}
}

// TestAggregateTierAllocs: once the table has grown to its ports, the
// forward path through the aggregate tier allocates nothing, ticking
// reader included.
func TestAggregateTierAllocs(t *testing.T) {
	bus := New()
	var ticks int
	bus.Registry().SetTick(func(at sim.Time) sim.Time { ticks++; return at + 10 })
	p := pkt(1, 2)
	forwardPath(bus, p, 0)
	at := sim.Time(0)
	if a := testing.AllocsPerRun(200, func() { at += 7; forwardPath(bus, p, at) }); a != 0 {
		t.Fatalf("aggregate tier: %v allocs/op on the forward path", a)
	}
	if ticks < 100 {
		t.Fatalf("the tick reader ran %d times", ticks)
	}
}

// TestRegistryTick pins the tick contract: the reader runs before the
// update that crossed its boundary is applied, only the kinds a sampler
// reads through the table tick, and Last follows them.
func TestRegistryTick(t *testing.T) {
	bus := New()
	r := bus.Registry()
	var seen []int32
	r.SetTick(func(at sim.Time) sim.Time {
		seen = append(seen, r.port(0, 0).Depth)
		return (at + 9) / 10 * 10
	})
	p := pkt(1, 2)
	bus.PacketSent(3, true, 0, 0, p) // not a ticking kind
	bus.FECNMarked(4, 0, 0, false, p, 1, 1)
	if len(seen) != 0 || r.Last != 0 {
		t.Fatalf("PacketSent/FECNMarked ticked: %v, last %v", seen, r.Last)
	}
	bus.QueueSampled(5, 0, 0, false, 0, 100)  // first event: ticks, sees 0
	bus.QueueSampled(10, 0, 0, false, 0, 200) // on the boundary: no tick
	bus.CreditStalled(11, false, 7, 0, 0, 0, 64)
	bus.QueueSampled(25, 0, 0, false, 0, 50)
	bus.PacketDelivered(31, 2, p)
	bus.PacketDropped(41, false, 7, 0, nil, 0, 64)
	if want := []int32{0, 200, 200, 50, 50}; fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("tick reader saw depths %v, want %v", seen, want)
	}
	if r.Last != 41 || r.Stalls != 1 || r.Delivered[ClassOther] != int64(p.WireBytes()-ib.HeaderBytes) {
		t.Fatalf("last %v stalls %d delivered %v", r.Last, r.Stalls, r.Delivered)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second tick reader was accepted")
		}
	}()
	r.SetTick(func(at sim.Time) sim.Time { return at })
}

// TestRegistrySpan pins the span contract: a message opens at its
// MsgSeq-0 data packet and closes at its last, keyed by source and
// message id; a one-packet message spans its own flight; a close whose
// open was never seen falls back to the last packet's InjectTime;
// control packets and middle packets do nothing; and the table keeps
// only open messages.
func TestRegistrySpan(t *testing.T) {
	bus := New()
	r := bus.Registry()
	var spans []sim.Duration
	r.SetSpan(func(d sim.Duration) { spans = append(spans, d) })
	msg := func(src ib.LID, id uint64, seq, total uint8, inject sim.Time) *ib.Packet {
		p := pkt(src, 9)
		p.MsgID, p.MsgSeq, p.MsgPackets, p.InjectTime = id, seq, total, inject
		return p
	}
	bus.PacketDelivered(10, 9, msg(1, 4, 0, 3, 2))
	bus.PacketDelivered(11, 9, msg(2, 4, 0, 2, 5)) // same id, other source
	bus.PacketDelivered(12, 9, msg(1, 4, 1, 3, 6))
	bus.PacketDelivered(13, 9, &ib.Packet{Type: ib.AckPacket, Src: 1, Dst: 9})
	if len(spans) != 0 || r.open.n != 2 {
		t.Fatalf("spans %v with %d open before any message ended", spans, r.open.n)
	}
	bus.PacketDelivered(20, 9, msg(1, 4, 2, 3, 7))  // 20 − 2
	bus.PacketDelivered(21, 9, msg(3, 8, 0, 1, 16)) // one packet: 21 − 16
	bus.PacketDelivered(30, 9, msg(5, 1, 1, 2, 24)) // open never seen: 30 − 24
	bus.PacketDelivered(40, 9, msg(2, 4, 1, 2, 9))  // 40 − 5
	if want := []sim.Duration{18, 5, 6, 35}; fmt.Sprint(spans) != fmt.Sprint(want) {
		t.Fatalf("spans %v, want %v", spans, want)
	}
	if r.open.n != 0 {
		t.Fatalf("%d messages left open", r.open.n)
	}
	for _, p := range []*ib.Packet{msg(1, 1<<48, 0, 2, 0), msg(1<<16, 1, 0, 2, 0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("message %d from LID %d was keyed", p.MsgID, p.Src)
				}
			}()
			bus.PacketDelivered(50, 9, p)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second span reader was accepted")
		}
	}()
	r.SetSpan(func(sim.Duration) {})
}

func TestRegistryCounters(t *testing.T) {
	b := New()
	r := b.Registry()

	p := pkt(1, 2)
	b.PacketSent(1, true, 0, 3, p)
	b.PacketSent(2, true, 0, 3, p)
	p2 := pkt(1, 2)
	p2.VL = 1
	b.PacketSent(3, true, 0, 3, p2)
	b.PacketSent(4, false, 7, 0, p) // host transmit: not a switch port
	b.FECNMarked(5, 0, 3, true, p, 9000, 10)
	b.CreditStalled(6, true, 0, 3, 0, 0, 2094)
	b.QueueSampled(7, 0, 3, true, 0, 12345)
	b.QueueSampled(8, 0, 3, true, 0, 99)
	b.QueueSampled(9, 1, 0, false, 0, 5)

	c := r.Port(0, 3)
	if c == nil {
		t.Fatal("port missing")
	}
	wire := uint64(p.WireBytes())
	if c.FwdPackets != 3 || c.FwdBytesVL[0] != 2*wire || c.FwdBytesVL[1] != wire {
		t.Fatalf("forward counters = %+v", c)
	}
	if c.FECNMarks != 1 || c.CreditStalls != 1 || c.PeakQueuedBytes != 12345 || !c.HostPort {
		t.Fatalf("counters = %+v", c)
	}
	if got := r.Ports(); len(got) != 2 || got[0] != (PortKey{0, 3}) || got[1] != (PortKey{1, 0}) {
		t.Fatalf("ports = %v", got)
	}
	marks, stalls, fp, fb := r.Totals()
	if marks != 1 || stalls != 1 || fp != 3 || fb != 3*wire {
		t.Fatalf("totals = %d %d %d %d", marks, stalls, fp, fb)
	}
	if k, hc := r.HottestPort(); hc == nil || k != (PortKey{0, 3}) {
		t.Fatalf("hottest = %v %v", k, hc)
	}
}

func TestRegistryHottestPortEmpty(t *testing.T) {
	r := New().Registry()
	if _, c := r.HottestPort(); c != nil {
		t.Fatal("hottest port on empty registry")
	}
}

// TestRegistryPortsOutOfOrder: the dense table grows to whatever index
// shows up — the highest switch first, sparse ports, the last data VL —
// and still lists ports in (switch, port) order with the gaps skipped.
func TestRegistryPortsOutOfOrder(t *testing.T) {
	b := New()
	r := b.Registry()

	p := pkt(1, 2)
	p.VL = 14
	b.PacketSent(1, true, 40, 35, p)
	b.QueueSampled(2, 40, 2, true, 14, 700)
	b.FECNMarked(3, 7, 9, false, p, 9000, 10)
	b.FECNMarked(4, 7, 9, false, p, 9000, 10)
	b.CreditStalled(5, true, 0, 17, 14, 0, 2094)
	b.PacketSent(6, true, 40, 35, p)
	b.FECNMarked(7, 40, 35, false, p, 9000, 10)

	want := []PortKey{{0, 17}, {7, 9}, {40, 2}, {40, 35}}
	got := r.Ports()
	if len(got) != len(want) {
		t.Fatalf("ports = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ports = %v, want %v", got, want)
		}
	}
	if c := r.Port(40, 35); c == nil || c.FwdPackets != 2 || c.FwdBytesVL[14] != 2*uint64(p.WireBytes()) || c.FECNMarks != 1 {
		t.Fatalf("port 40.35 = %+v", c)
	}
	if c := r.Port(40, 2); c == nil || c.PeakQueuedBytes != 700 || !c.HostPort {
		t.Fatalf("port 40.2 = %+v", c)
	}
	for _, k := range []PortKey{{40, 3}, {39, 0}, {41, 0}, {0, 18}, {-1, 0}, {0, -1}} {
		if r.Port(k.Switch, k.Port) != nil {
			t.Fatalf("port %v materialized without an event", k)
		}
	}
	if marks, stalls, fp, _ := r.Totals(); marks != 3 || stalls != 1 || fp != 2 {
		t.Fatalf("totals = %d %d %d", marks, stalls, fp)
	}
	if k, c := r.HottestPort(); c == nil || k != (PortKey{7, 9}) {
		t.Fatalf("hottest = %v %+v", k, c)
	}
}

func TestPortTableKeepsEntriesAcrossGrowth(t *testing.T) {
	var tab PortTable[int]
	*tab.At(5, 3) = 53
	*tab.At(0, 0) = 1
	*tab.At(5, 30) = 530 // regrows row 5
	*tab.At(9, 1) = 91   // regrows the switch dimension
	if len(tab) != 10 || len(tab[5]) != 31 || len(tab[4]) != 0 {
		t.Fatalf("shape: %d switches, row 5 has %d ports, row 4 has %d", len(tab), len(tab[5]), len(tab[4]))
	}
	if *tab.At(5, 3) != 53 || *tab.At(0, 0) != 1 || *tab.At(5, 30) != 530 || *tab.At(9, 1) != 91 || *tab.At(5, 4) != 0 {
		t.Fatalf("entries lost in growth: %v", tab)
	}
}

// TestPortCountersLayout pins the row layout: a row is a whole number of
// cache lines, and on a one-VL fabric everything a hop touches — lane
// 0's depth, the depth sums, the peak, the forward counters and flags —
// lies in the row's second line.
func TestPortCountersLayout(t *testing.T) {
	var c PortCounters
	if size := unsafe.Sizeof(c); size != 256 {
		t.Fatalf("PortCounters is %d bytes, want 256", size)
	}
	for name, f := range map[string][2]uintptr{
		"lane 0 depth":    {unsafe.Offsetof(c.vlDepth) + 4*(MaxVLs-1), 4},
		"Depth":           {unsafe.Offsetof(c.Depth), 4},
		"PeakDepth":       {unsafe.Offsetof(c.PeakDepth), 4},
		"PeakQueuedBytes": {unsafe.Offsetof(c.PeakQueuedBytes), 8},
		"FwdPackets":      {unsafe.Offsetof(c.FwdPackets), 8},
		"HostPort":        {unsafe.Offsetof(c.HostPort), 1},
		"seen":            {unsafe.Offsetof(c.seen), 1},
		"host":            {unsafe.Offsetof(c.host), 1},
		"lane 0 bytes":    {unsafe.Offsetof(c.FwdBytesVL), 8},
	} {
		if off, size := f[0], f[1]; off < 64 || off+size > 128 {
			t.Errorf("%s at bytes [%d, %d) of the row, outside its second cache line", name, off, off+size)
		}
	}
}

package fabric

import (
	"testing"

	"repro/internal/ib"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// testDropper adapts closures to the Dropper interface.
type testDropper struct {
	pkt func(atSwitch, hostFacing bool, node, port int, p *ib.Packet) bool
	crd func(vl ib.VL, bytes int) bool
}

func (d *testDropper) DropPacket(atSwitch, hostFacing bool, node, port int, p *ib.Packet) bool {
	return d.pkt != nil && d.pkt(atSwitch, hostFacing, node, port, p)
}

func (d *testDropper) DropCredit(vl ib.VL, bytes int) bool {
	return d.crd != nil && d.crd(vl, bytes)
}

// A downed link stops transmitting, queues back up behind it, and
// resumes cleanly on link-up: everything injected is eventually
// delivered and the fabric drains to quiescence.
func TestLinkDownPausesAndResumes(t *testing.T) {
	tp, _ := topo.SingleSwitch(2)
	n := buildNet(t, tp, testCfg(), Hooks{})
	n.HCA(0).SetSource(&floodSource{src: 0, dst: 1, remaining: 50})

	// Stall the switch's host-facing port toward LID 1 (the port is the
	// one whose peer is host 1: on SingleSwitch, port index = LID).
	var downAt, upAt sim.Time
	n.Sim().Schedule(20*sim.Microsecond, func() {
		downAt = n.Sim().Now()
		n.SetLinkDown(true, 0, 1, true)
	})
	n.Sim().Schedule(120*sim.Microsecond, func() {
		upAt = n.Sim().Now()
		n.SetLinkDown(true, 0, 1, false)
	})

	// No packet may reach host 1 strictly inside the outage window.
	var inWindow int
	n.SetHooks(Hooks{Deliver: func(lid ib.LID, p *ib.Packet) {
		now := n.Sim().Now()
		if downAt != 0 && now > downAt.Add(n.cfg.PropDelay+n.cfg.HopLatency+2*sim.Microsecond) && (upAt == 0 || now < upAt) {
			inWindow++
		}
	}})

	n.Start()
	n.Sim().Run()
	if inWindow != 0 {
		t.Fatalf("%d deliveries during link outage", inWindow)
	}
	if got := n.HCA(1).Counters().RxPackets; got != 50 {
		t.Fatalf("delivered %d packets, want 50", got)
	}
	if err := n.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// A degraded link slows delivery: the same workload takes measurably
// longer wall-clock (simulated) time with a serialization multiplier.
func TestLinkSlowDegradesThroughput(t *testing.T) {
	run := func(factor float64) sim.Time {
		tp, _ := topo.SingleSwitch(2)
		n := buildNet(t, tp, testCfg(), Hooks{})
		n.HCA(0).SetSource(&floodSource{src: 0, dst: 1, remaining: 200})
		if factor > 1 {
			n.SetLinkSlow(false, 0, 0, factor)
			n.SetLinkSlow(true, 0, 1, factor)
		}
		n.Start()
		n.Sim().Run()
		if got := n.HCA(1).Counters().RxPackets; got != 200 {
			t.Fatalf("delivered %d packets, want 200", got)
		}
		if err := n.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
		return n.Sim().Now()
	}
	nominal := run(1)
	slowed := run(4)
	if slowed <= nominal {
		t.Fatalf("4x serialization did not slow the run: %v vs %v", slowed, nominal)
	}
}

// Dropped data packets keep the ledgers exact: deliveries plus drops
// account for every injection, credits all come home, and the audit
// classifies the losses.
func TestDropConservation(t *testing.T) {
	tp, _ := topo.SingleSwitch(2)
	n := buildNet(t, tp, testCfg(), Hooks{})
	aud := n.Audit()
	var nth int
	n.SetDropper(&testDropper{pkt: func(atSwitch, hostFacing bool, node, port int, p *ib.Packet) bool {
		nth++
		return nth%5 == 0
	}})
	n.HCA(0).SetSource(&floodSource{src: 0, dst: 1, remaining: 100})
	n.Start()
	n.Sim().Run()

	rx := n.HCA(1).Counters().RxPackets
	if int(rx)+aud.DroppedPackets != 100 {
		t.Fatalf("rx %d + dropped %d != injected 100", rx, aud.DroppedPackets)
	}
	if aud.DroppedPackets == 0 {
		t.Fatal("dropper never fired")
	}
	if aud.DroppedData != aud.DroppedPackets {
		t.Fatalf("pure data run classified %d/%d drops as data (%+v)", aud.DroppedData, aud.DroppedPackets, *aud)
	}
	if err := n.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// A drop on the final hop — the packet in flight toward the sink HCA —
// still returns the leaf switch's credit and drains clean. This is the
// hardest custody case: the receiver that never sees the packet is a
// host, not a switch input port.
func TestDropFinalHop(t *testing.T) {
	tp, _ := topo.SingleSwitch(2)
	n := buildNet(t, tp, testCfg(), Hooks{})
	aud := n.Audit()
	var seenFinal int
	n.SetDropper(&testDropper{pkt: func(atSwitch, hostFacing bool, node, port int, p *ib.Packet) bool {
		if !hostFacing {
			return false
		}
		seenFinal++
		return seenFinal%3 == 0
	}})
	n.HCA(0).SetSource(&floodSource{src: 0, dst: 1, remaining: 60})
	n.Start()
	n.Sim().Run()

	rx := n.HCA(1).Counters().RxPackets
	if int(rx)+aud.DroppedPackets != 60 {
		t.Fatalf("rx %d + dropped %d != injected 60", rx, aud.DroppedPackets)
	}
	if aud.DroppedPackets != 20 {
		t.Fatalf("dropped %d final-hop packets, want 20", aud.DroppedPackets)
	}
	if err := n.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// Per-class drop accounting: CNPs, acks, FECN-marked data and plain data
// land in their own audit columns.
func TestDropClassification(t *testing.T) {
	tp, _ := topo.SingleSwitch(2)
	n := buildNet(t, tp, testCfg(), Hooks{})
	aud := n.Audit()
	n.SetDropper(&testDropper{pkt: func(atSwitch, hostFacing bool, node, port int, p *ib.Packet) bool {
		return hostFacing // lose everything on its final hop
	}})
	h := n.HCA(0)
	h.SetSource(&floodSource{src: 0, dst: 1, remaining: 2})
	n.Start()
	// Inject one of each control class plus a FECN-marked data packet
	// alongside the two plain data packets.
	h.SendControl(&ib.Packet{Type: ib.CNPPacket, Dst: 1})
	h.SendControl(&ib.Packet{Type: ib.AckPacket, Dst: 1})
	h.SendControl(&ib.Packet{Type: ib.DataPacket, Dst: 1, PayloadBytes: ib.MTU, FECN: true})
	n.Sim().Run()

	if aud.DroppedCNP != 1 || aud.DroppedAck != 1 || aud.DroppedFECN != 1 || aud.DroppedData != 2 {
		t.Fatalf("drop classification off: %+v", *aud)
	}
	if aud.DroppedPackets != 5 {
		t.Fatalf("dropped %d, want 5", aud.DroppedPackets)
	}
	if err := n.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// A lost credit update is deferred, not leaked: the link stays correct,
// everything is delivered, and quiescence still balances after the
// refresh delay.
func TestDropCreditUpdateDefers(t *testing.T) {
	tp, _ := topo.SingleSwitch(2)
	n := buildNet(t, tp, testCfg(), Hooks{})
	aud := n.Audit()
	var lost int
	n.SetDropper(&testDropper{crd: func(vl ib.VL, bytes int) bool {
		if lost < 7 {
			lost++
			return true
		}
		return false
	}})
	n.HCA(0).SetSource(&floodSource{src: 0, dst: 1, remaining: 80})
	n.Start()
	n.Sim().Run()

	if got := n.HCA(1).Counters().RxPackets; got != 80 {
		t.Fatalf("delivered %d packets, want 80", got)
	}
	if aud.DroppedCredits != 7 {
		t.Fatalf("DroppedCredits = %d, want 7", aud.DroppedCredits)
	}
	if err := n.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// faultEventCount tallies fault-layer events off the bus.
type faultEventCount struct{ downs, ups, drops int }

func (c *faultEventCount) Consume(e obs.Event) {
	switch e.Kind {
	case obs.KindLinkDown:
		c.downs++
	case obs.KindLinkUp:
		c.ups++
	case obs.KindPacketDropped:
		c.drops++
	}
}

func newCountingBus(t *testing.T, n *Network) *faultEventCount {
	t.Helper()
	b := obs.New()
	c := &faultEventCount{}
	b.Subscribe(c, obs.KindLinkDown, obs.KindLinkUp, obs.KindPacketDropped)
	n.SetBus(b)
	return c
}

// Fault events reach the flight recorder with the transmitter's
// identity.
func TestFaultEventsPublished(t *testing.T) {
	tp, _ := topo.SingleSwitch(2)
	n := buildNet(t, tp, testCfg(), Hooks{})
	bus := newCountingBus(t, n)
	var nth int
	n.SetDropper(&testDropper{pkt: func(atSwitch, hostFacing bool, node, port int, p *ib.Packet) bool {
		nth++
		return nth == 1
	}})
	n.HCA(0).SetSource(&floodSource{src: 0, dst: 1, remaining: 10})
	n.Sim().Schedule(5*sim.Microsecond, func() { n.SetLinkDown(true, 0, 1, true) })
	n.Sim().Schedule(15*sim.Microsecond, func() { n.SetLinkDown(true, 0, 1, false) })
	n.Start()
	n.Sim().Run()
	if bus.downs != 1 || bus.ups != 1 || bus.drops != 1 {
		t.Fatalf("fault events: downs=%d ups=%d drops=%d, want 1 each", bus.downs, bus.ups, bus.drops)
	}
}

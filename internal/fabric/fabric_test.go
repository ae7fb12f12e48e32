package fabric

import (
	"testing"

	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/topo"
)

// floodSource injects MTU data packets to a fixed destination as fast as
// the HCA pulls. remaining < 0 means unbounded.
type floodSource struct {
	src, dst  ib.LID
	remaining int
	nextID    uint64
	msgID     uint64
}

func (f *floodSource) Pull(now sim.Time) (*ib.Packet, sim.Time) {
	if f.remaining == 0 {
		return nil, sim.MaxTime
	}
	if f.remaining > 0 {
		f.remaining--
	}
	p := &ib.Packet{
		ID: f.nextID, Type: ib.DataPacket,
		Src: f.src, Dst: f.dst,
		PayloadBytes: ib.MTU,
		MsgID:        f.msgID, MsgSeq: uint8(f.nextID % 2), MsgPackets: 2,
	}
	f.nextID++
	if f.nextID%2 == 0 {
		f.msgID++
	}
	return p, 0
}

// delayedSource becomes ready at a fixed time, testing the wake-up path.
type delayedSource struct {
	floodSource
	ready sim.Time
}

func (d *delayedSource) Pull(now sim.Time) (*ib.Packet, sim.Time) {
	if now < d.ready {
		return nil, d.ready
	}
	return d.floodSource.Pull(now)
}

func buildNet(t testing.TB, tp *topo.Topology, cfg Config, hooks Hooks) *Network {
	t.Helper()
	r, err := topo.ComputeLFT(tp)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(sim.New(), tp, r, cfg, hooks)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.Check = true
	return cfg
}

func TestSingleMessageDelivery(t *testing.T) {
	tp, _ := topo.SingleSwitch(2)
	// Delivery consumers must not retain *ib.Packet past the hook (the
	// sink releases it to the pool right after); copy the value.
	var delivered []ib.Packet
	n := buildNet(t, tp, testCfg(), Hooks{
		Deliver: func(lid ib.LID, p *ib.Packet) {
			if lid == 1 {
				delivered = append(delivered, *p)
			}
		},
	})
	n.HCA(0).SetSource(&floodSource{src: 0, dst: 1, remaining: 2})
	n.Start()
	n.Sim().Run()
	if len(delivered) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(delivered))
	}
	for _, p := range delivered {
		if p.Src != 0 || p.Dst != 1 || p.PayloadBytes != ib.MTU {
			t.Fatalf("bad packet %v", p)
		}
	}
	c := n.HCA(1).Counters()
	if c.RxDataPayload != 2*ib.MTU || c.RxPackets != 2 {
		t.Fatalf("counters = %+v", c)
	}
	if err := n.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

func TestDeliveryAcrossFatTree(t *testing.T) {
	tp, _ := topo.FatTree(4) // 8 hosts
	n := buildNet(t, tp, testCfg(), Hooks{})
	// Host 0 (leaf 0) to host 7 (leaf 3): full up-down route.
	n.HCA(0).SetSource(&floodSource{src: 0, dst: 7, remaining: 10})
	n.Start()
	n.Sim().Run()
	if got := n.HCA(7).Counters().RxDataPayload; got != 10*ib.MTU {
		t.Fatalf("delivered %d bytes", got)
	}
	if err := n.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

func TestSustainedThroughputIsInjectionLimited(t *testing.T) {
	tp, _ := topo.SingleSwitch(2)
	n := buildNet(t, tp, testCfg(), Hooks{})
	n.HCA(0).SetSource(&floodSource{src: 0, dst: 1, remaining: -1})
	n.Start()
	window := 2 * sim.Millisecond
	n.Sim().RunUntil(sim.Time(0).Add(window))
	got := float64(n.HCA(1).Counters().RxDataPayload) * 8 / window.Seconds()
	// Goodput = 13.5 Gbit/s scaled by payload/wire ratio.
	want := 13.5e9 * float64(ib.MTU) / float64(ib.MTU+ib.HeaderBytes)
	if got < want*0.98 || got > want*1.02 {
		t.Fatalf("goodput = %.3g bit/s, want ~%.3g", got, want)
	}
}

func TestHotspotReceiverIsSinkLimited(t *testing.T) {
	// Four senders into one receiver: total delivery must saturate at
	// the sink rate, and round-robin arbitration must share it fairly.
	tp, _ := topo.SingleSwitch(5)
	n := buildNet(t, tp, testCfg(), Hooks{})
	for s := ib.LID(1); s <= 4; s++ {
		n.HCA(s).SetSource(&floodSource{src: s, dst: 0, remaining: -1})
	}
	n.Start()
	window := 2 * sim.Millisecond
	n.Sim().RunUntil(sim.Time(0).Add(window))
	rx := n.HCA(0).Counters()
	gotWire := float64(rx.RxBytes) * 8 / window.Seconds()
	if gotWire < 13.6e9*0.97 || gotWire > 13.6e9*1.02 {
		t.Fatalf("hotspot wire rate = %.4g, want ~13.6e9", gotWire)
	}
	// Fair shares: each sender's injected traffic within 15% of the mean.
	var tx [4]float64
	var sum float64
	for s := ib.LID(1); s <= 4; s++ {
		tx[s-1] = float64(n.HCA(s).Counters().TxDataPayload)
		sum += tx[s-1]
	}
	mean := sum / 4
	for i, v := range tx {
		if v < mean*0.85 || v > mean*1.15 {
			t.Fatalf("sender %d injected %.4g, mean %.4g — unfair", i+1, v, mean)
		}
	}
}

func TestBackpressureNeverOverflows(t *testing.T) {
	// Tiny buffers + hotspot overload: the Check assertions inside the
	// fabric verify credits/buffers never go negative.
	cfg := testCfg()
	cfg.SwitchIbufBytes = 3 * (ib.MTU + ib.HeaderBytes)
	cfg.HostIbufBytes = 2 * (ib.MTU + ib.HeaderBytes)
	cfg.HostObufBytes = ib.MTU + ib.HeaderBytes
	tp, _ := topo.LinearChain(3, 2)
	n := buildNet(t, tp, cfg, Hooks{})
	for s := 0; s < 4; s++ {
		n.HCA(ib.LID(s)).SetSource(&floodSource{src: ib.LID(s), dst: 5, remaining: -1})
	}
	n.Start()
	n.Sim().RunUntil(sim.Time(0).Add(500 * sim.Microsecond))
	if n.HCA(5).Counters().RxPackets == 0 {
		t.Fatal("nothing delivered under backpressure")
	}
}

func TestHOLBlockingVictim(t *testing.T) {
	// Chain of two switches. Four contributors on sw0 flood host C on
	// sw1; a victim on sw0 sends to another sw1 host. The shared
	// inter-switch link's input buffer fills with hotspot-bound packets
	// and head-of-line blocking collapses the victim's throughput —
	// the phenomenon the paper's CC mechanism exists to fix.
	tp, _ := topo.LinearChain(2, 5) // hosts 0-4 on sw0, 5-9 on sw1
	n := buildNet(t, tp, testCfg(), Hooks{})
	for s := 0; s < 4; s++ {
		n.HCA(ib.LID(s)).SetSource(&floodSource{src: ib.LID(s), dst: 5, remaining: -1})
	}
	n.HCA(4).SetSource(&floodSource{src: 4, dst: 6, remaining: -1}) // victim
	n.Start()
	window := 2 * sim.Millisecond
	n.Sim().RunUntil(sim.Time(0).Add(window))
	victim := float64(n.HCA(6).Counters().RxDataPayload) * 8 / window.Seconds()
	hot := float64(n.HCA(5).Counters().RxBytes) * 8 / window.Seconds()
	if hot < 13.6e9*0.95 {
		t.Fatalf("hotspot rate = %.4g, should saturate its sink", hot)
	}
	// Unimpeded the victim would get ~13.2 Gbit/s goodput; HOL blocking
	// must push it far below (analytically ~4.4 Gbit/s here).
	if victim > 8e9 {
		t.Fatalf("victim rate = %.4g — no HOL blocking observed", victim)
	}
	if victim < 0.5e9 {
		t.Fatalf("victim rate = %.4g — completely starved, arbitration broken", victim)
	}
}

func TestNoHOLWithoutOverload(t *testing.T) {
	// Two contributors cannot overload the sink (RR caps them below its
	// rate), so a victim across the same link keeps near-full rate.
	tp, _ := topo.LinearChain(2, 3) // hosts 0-2 on sw0, 3-5 on sw1
	n := buildNet(t, tp, testCfg(), Hooks{})
	n.HCA(0).SetSource(&floodSource{src: 0, dst: 3, remaining: -1})
	n.HCA(1).SetSource(&floodSource{src: 1, dst: 3, remaining: -1})
	n.HCA(2).SetSource(&floodSource{src: 2, dst: 4, remaining: -1})
	n.Start()
	window := 2 * sim.Millisecond
	n.Sim().RunUntil(sim.Time(0).Add(window))
	victim := float64(n.HCA(4).Counters().RxDataPayload) * 8 / window.Seconds()
	// Link is 20G, three flows RR -> victim gets its ~6.6G share of the
	// shared link; but since the two hotspot flows only sink 13.6G
	// combined, the victim should get the remainder, > 6G.
	if victim < 6e9 {
		t.Fatalf("victim rate = %.4g with no overload", victim)
	}
}

func TestControlPacketPriority(t *testing.T) {
	tp, _ := topo.SingleSwitch(2)
	var cnpAt sim.Time = -1
	n := buildNet(t, tp, testCfg(), Hooks{
		Deliver: func(lid ib.LID, p *ib.Packet) {
			if p.Type == ib.CNPPacket && cnpAt < 0 {
				cnpAt = p.InjectTime
			}
		},
	})
	n.HCA(0).SetSource(&floodSource{src: 0, dst: 1, remaining: -1})
	n.Start()
	// Let data flow, then inject a CNP; it must be the very next packet
	// DMAed despite an infinite data backlog.
	n.Sim().Schedule(100*sim.Microsecond, func() {
		n.HCA(0).SendControl(&ib.Packet{Type: ib.CNPPacket, Dst: 1, BECN: true})
	})
	n.Sim().RunUntil(sim.Time(0).Add(200 * sim.Microsecond))
	if cnpAt < 0 {
		t.Fatal("CNP never delivered")
	}
	// Injection of an in-flight data packet takes ~1.2us; the CNP must
	// enter the wire within a few packet times of its submission.
	if d := cnpAt.Sub(sim.Time(100 * sim.Microsecond)); d > 5*sim.Microsecond {
		t.Fatalf("CNP waited %v behind data backlog", d)
	}
	if n.HCA(0).Counters().TxCNP != 1 || n.HCA(1).Counters().RxCNP != 1 {
		t.Fatal("CNP counters wrong")
	}
}

func TestSwitchDepartureHookState(t *testing.T) {
	tp, _ := topo.SingleSwitch(3)
	seen := 0
	n := buildNet(t, tp, testCfg(), Hooks{
		SwitchDeparture: func(sw, out int, p *ib.Packet, st PortVLState) {
			seen++
			if st.QueuedBytes < 0 {
				t.Errorf("QueuedBytes %d negative", st.QueuedBytes)
			}
			if st.CreditBytes < 0 {
				t.Errorf("negative credits %d", st.CreditBytes)
			}
			if !st.HostPort {
				t.Error("crossbar output ports all face hosts")
			}
			if st.CapacityBytes <= 0 {
				t.Error("capacity missing")
			}
		},
	})
	n.HCA(0).SetSource(&floodSource{src: 0, dst: 2, remaining: 20})
	n.HCA(1).SetSource(&floodSource{src: 1, dst: 2, remaining: 20})
	n.Start()
	n.Sim().Run()
	if seen != 40 {
		t.Fatalf("hook saw %d departures, want 40", seen)
	}
}

func TestFECNMarkPropagates(t *testing.T) {
	tp, _ := topo.SingleSwitch(2)
	n := buildNet(t, tp, testCfg(), Hooks{
		SwitchDeparture: func(sw, out int, p *ib.Packet, st PortVLState) {
			p.FECN = true
		},
	})
	n.HCA(0).SetSource(&floodSource{src: 0, dst: 1, remaining: 5})
	n.Start()
	n.Sim().Run()
	if got := n.HCA(1).Counters().RxFECN; got != 5 {
		t.Fatalf("RxFECN = %d, want 5", got)
	}
}

func TestDelayedSourceWakeup(t *testing.T) {
	tp, _ := topo.SingleSwitch(2)
	n := buildNet(t, tp, testCfg(), Hooks{})
	ready := sim.Time(50 * sim.Microsecond)
	n.HCA(0).SetSource(&delayedSource{
		floodSource: floodSource{src: 0, dst: 1, remaining: 1},
		ready:       ready,
	})
	n.Start()
	n.Sim().Run()
	c := n.HCA(1).Counters()
	if c.RxPackets != 1 {
		t.Fatalf("RxPackets = %d", c.RxPackets)
	}
	// The packet must have been injected promptly once ready.
	inj := n.HCA(0).Counters()
	if inj.TxPackets != 1 {
		t.Fatal("nothing injected")
	}
	if now := n.Sim().Now(); now < ready || now > ready.Add(10*sim.Microsecond) {
		t.Fatalf("delivery completed at %v, want shortly after %v", now, ready)
	}
}

func TestStoreAndForwardSlowerThanCutThrough(t *testing.T) {
	elapsed := func(cut bool) sim.Time {
		tp, _ := topo.LinearChain(4, 1) // maximize hop count
		cfg := testCfg()
		cfg.CutThrough = cut
		n := buildNet(t, tp, cfg, Hooks{})
		n.HCA(0).SetSource(&floodSource{src: 0, dst: 3, remaining: 1})
		n.Start()
		n.Sim().Run()
		return n.Sim().Now()
	}
	ct, sf := elapsed(true), elapsed(false)
	if ct >= sf {
		t.Fatalf("cut-through %v not faster than store-and-forward %v", ct, sf)
	}
	// SAF adds one serialization (~860ns) per switch hop (4 switches).
	if diff := sf.Sub(ct); diff < 3*sim.Microsecond {
		t.Fatalf("SAF penalty only %v over 4 hops", diff)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() [4]uint64 {
		tp, _ := topo.LinearChain(2, 4)
		n := buildNet(t, tp, testCfg(), Hooks{})
		for s := 0; s < 3; s++ {
			n.HCA(ib.LID(s)).SetSource(&floodSource{src: ib.LID(s), dst: 4, remaining: -1})
		}
		n.HCA(3).SetSource(&floodSource{src: 3, dst: 5, remaining: -1})
		n.Start()
		n.Sim().RunUntil(sim.Time(0).Add(500 * sim.Microsecond))
		return [4]uint64{
			n.HCA(4).Counters().RxBytes,
			n.HCA(5).Counters().RxBytes,
			n.HCA(0).Counters().TxBytes,
			n.Sim().Processed(),
		}
	}
	if run() != run() {
		t.Fatal("identical runs diverged")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.LinkRate = 0 },
		func(c *Config) { c.InjectionRate = c.LinkRate * 2 },
		func(c *Config) { c.NumVLs = 0 },
		func(c *Config) { c.NumVLs = 16 },
		func(c *Config) { c.SwitchIbufBytes = 10 },
		func(c *Config) { c.HostIbufBytes = 10 },
		func(c *Config) { c.HostObufBytes = 10 },
		func(c *Config) { c.PropDelay = -1 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	tp, _ := topo.SingleSwitch(2)
	r, _ := topo.ComputeLFT(tp)
	cfg := DefaultConfig()
	cfg.NumVLs = 0
	if _, err := New(sim.New(), tp, r, cfg, Hooks{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestQuiescenceAfterBurst(t *testing.T) {
	tp, _ := topo.FatTree(4)
	n := buildNet(t, tp, testCfg(), Hooks{})
	for s := 0; s < 8; s++ {
		dst := ib.LID((s + 3) % 8)
		n.HCA(ib.LID(s)).SetSource(&floodSource{src: ib.LID(s), dst: dst, remaining: 50})
	}
	n.Start()
	n.Sim().Run()
	if err := n.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	var rx uint64
	for s := 0; s < 8; s++ {
		rx += n.HCA(ib.LID(s)).Counters().RxDataPayload
	}
	if rx != 8*50*ib.MTU {
		t.Fatalf("delivered %d bytes, want %d", rx, 8*50*ib.MTU)
	}
}

func TestAccessors(t *testing.T) {
	tp, _ := topo.SingleSwitch(2)
	n := buildNet(t, tp, testCfg(), Hooks{})
	if n.NumHosts() != 2 || len(n.Switches()) != 1 {
		t.Fatal("accessors wrong")
	}
	if n.HCA(0).LID() != 0 {
		t.Fatal("LID wrong")
	}
	if n.Switches()[0].Index() != 0 {
		t.Fatal("switch index wrong")
	}
	if n.Config().LinkRate != DefaultConfig().LinkRate {
		t.Fatal("config not stored")
	}
	if n.Topology() != tp {
		t.Fatal("topology not stored")
	}
	if n.Switches()[0].QueuedBytes(0, 0) != 0 {
		t.Fatal("queued bytes on idle switch")
	}
}

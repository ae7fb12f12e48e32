package traffic

import (
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/ib"
	"repro/internal/sim"
)

func baseCfg(p int) NodeConfig {
	return NodeConfig{
		LID:           0,
		NumNodes:      16,
		PPercent:      p,
		Hotspot:       StaticTarget(5),
		InjectionRate: ib.DefaultInjectionRate(),
		RNG:           sim.NewRNG(42),
	}
}

func mustGen(t *testing.T, cfg NodeConfig) *Generator {
	t.Helper()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// drain pulls every packet eligible at successive instants spaced by the
// injection time, emulating a fabric that never backpressures.
func drain(g *Generator, until sim.Time) []*ib.Packet {
	var out []*ib.Packet
	now := sim.Time(0)
	for now <= until {
		p, wake := g.Pull(now)
		if p != nil {
			out = append(out, p)
			now = now.Add(ib.DefaultInjectionRate().TxTime(p.WireBytes()))
			continue
		}
		if wake == sim.MaxTime || wake > until {
			break
		}
		now = wake
	}
	return out
}

func TestNewGeneratorValidation(t *testing.T) {
	cases := []func(*NodeConfig){
		func(c *NodeConfig) { c.NumNodes = 1 },
		func(c *NodeConfig) { c.PPercent = -1 },
		func(c *NodeConfig) { c.PPercent = 101 },
		func(c *NodeConfig) { c.Hotspot = nil }, // p>0 without targeter
		func(c *NodeConfig) { c.RNG = nil },
		func(c *NodeConfig) { c.InjectionRate = 0 },
		func(c *NodeConfig) { c.MsgBytes = -1 },
		func(c *NodeConfig) { c.MsgBytes = 65 * ib.MTU },
		func(c *NodeConfig) { c.BacklogCap = -1 },
	}
	for i, mut := range cases {
		cfg := baseCfg(50)
		mut(&cfg)
		if _, err := NewGenerator(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// p == 0 without a targeter is fine.
	cfg := baseCfg(0)
	cfg.Hotspot = nil
	mustGen(t, cfg)
}

func TestPureUniformNode(t *testing.T) {
	g := mustGen(t, baseCfg(0))
	pkts := drain(g, sim.Time(2*sim.Millisecond))
	if len(pkts) == 0 {
		t.Fatal("no packets")
	}
	counts := map[ib.LID]int{}
	for _, p := range pkts {
		if p.Hotspot {
			t.Fatal("p=0 node produced hotspot traffic")
		}
		if p.Dst == 0 {
			t.Fatal("node sent to itself")
		}
		if p.Src != 0 {
			t.Fatal("wrong source")
		}
		counts[p.Dst]++
	}
	// All 15 other nodes must be hit by a 2ms full-rate uniform stream.
	if len(counts) != 15 {
		t.Fatalf("uniform stream reached %d destinations, want 15", len(counts))
	}
}

func TestPureHotspotNode(t *testing.T) {
	g := mustGen(t, baseCfg(100))
	pkts := drain(g, sim.Time(1*sim.Millisecond))
	if len(pkts) == 0 {
		t.Fatal("no packets")
	}
	for _, p := range pkts {
		if !p.Hotspot || p.Dst != 5 {
			t.Fatalf("C node produced %v", p)
		}
	}
}

func TestFullRateOfferedLoad(t *testing.T) {
	// An unthrottled, unbackpressured node must offer exactly its
	// injection rate (within one message of pacing).
	for _, p := range []int{0, 30, 50, 100} {
		g := mustGen(t, baseCfg(p))
		until := sim.Time(5 * sim.Millisecond)
		pkts := drain(g, until)
		var bytes int64
		for _, pk := range pkts {
			bytes += int64(pk.PayloadBytes)
		}
		want := ib.DefaultInjectionRate().BytesIn(until.Sub(0))
		// Wire overhead makes goodput slightly lower than the budget
		// accrual; allow 5%.
		if f := float64(bytes) / float64(want); f < 0.90 || f > 1.01 {
			t.Errorf("p=%d: offered %d of budget %d (%.2f)", p, bytes, want, f)
		}
	}
}

// Property: Frame I budget invariant — at any time, each stream has
// generated at most its rate share times elapsed time plus one message.
func TestBudgetInvariantProperty(t *testing.T) {
	f := func(pRaw uint8, steps []uint16) bool {
		p := int(pRaw) % 101
		cfg := baseCfg(p)
		g, err := NewGenerator(cfg)
		if err != nil {
			return false
		}
		now := sim.Time(0)
		hotRate := cfg.InjectionRate * sim.Rate(p) / 100
		uniRate := cfg.InjectionRate * sim.Rate(100-p) / 100
		for _, s := range steps {
			pk, wake := g.Pull(now)
			hot, uni := g.GeneratedBytes()
			slack := int64(ib.MessageBytes)
			if hot > hotRate.BytesIn(now.Sub(0))+slack {
				return false
			}
			if uni > uniRate.BytesIn(now.Sub(0))+slack {
				return false
			}
			if pk == nil && wake != sim.MaxTime && wake <= now {
				return false // wake must be in the future
			}
			now = now.Add(sim.Duration(s) * sim.Nanosecond)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamsShareByP(t *testing.T) {
	g := mustGen(t, baseCfg(60))
	drain(g, sim.Time(10*sim.Millisecond))
	hot, uni := g.GeneratedBytes()
	total := hot + uni
	share := float64(hot) / float64(total)
	if share < 0.58 || share > 0.62 {
		t.Fatalf("hotspot share = %.3f, want ~0.60", share)
	}
}

// hugeIRD throttles the hotspot destination only.
type hugeIRD struct{ dst ib.LID }

func (h hugeIRD) IRD(src, dst ib.LID, wire int) sim.Duration {
	if dst == h.dst {
		return sim.Second
	}
	return 0
}

func TestThrottledFlowDoesNotBlockOthers(t *testing.T) {
	// In a large network (so uniform messages rarely target the
	// throttled hotspot), stalling the hotspot flow must leave the
	// uniform stream's share untouched — the Frame I independence
	// requirement.
	cfg := baseCfg(50)
	cfg.NumNodes = 648
	cfg.Throttle = hugeIRD{dst: 5}
	g := mustGen(t, cfg)
	until := sim.Time(5 * sim.Millisecond)
	pkts := drain(g, until)
	var hotPkts, uniPkts int
	for _, p := range pkts {
		if p.Hotspot {
			hotPkts++
		} else {
			uniPkts++
		}
	}
	// The hotspot flow emits its first message then stalls for 1s.
	if hotPkts > 2 {
		t.Fatalf("throttled flow emitted %d packets", hotPkts)
	}
	// The uniform stream must still deliver its full half share:
	// 13.5G/2 over 5ms ≈ 4.2 MB ≈ 1030 two-packet messages.
	uniBytes := int64(uniPkts) * int64(ib.MTU)
	want := (cfg.InjectionRate / 2).BytesIn(until.Sub(0))
	if f := float64(uniBytes) / float64(want); f < 0.90 {
		t.Fatalf("uniform stream achieved only %.2f of its share", f)
	}
}

func TestFiniteBacklogSlotsExhaustUnderPathologicalThrottle(t *testing.T) {
	// With few destinations, uniform messages regularly target the
	// infinitely-throttled hotspot and pin backlog slots, eventually
	// stalling the stream — the documented finite-WQE behaviour of the
	// generator model.
	cfg := baseCfg(50)
	cfg.NumNodes = 4
	cfg.BacklogCap = 2
	cfg.Throttle = hugeIRD{dst: 5}
	cfg.Hotspot = StaticTarget(3)
	cfg.Throttle = hugeIRD{dst: 3}
	g := mustGen(t, cfg)
	pkts := drain(g, sim.Time(5*sim.Millisecond))
	uni := 0
	for _, p := range pkts {
		if !p.Hotspot {
			uni++
		}
	}
	// The stream must stall long before delivering its full share
	// (~1030 messages).
	if uni > 600 {
		t.Fatalf("uniform stream delivered %d packets despite slot exhaustion", uni)
	}
}

func TestSLThrottleGatesAllFlows(t *testing.T) {
	// Under SL-level throttling, one congested destination's IRD must
	// pace the whole node: unlike the QP-level test above, the uniform
	// stream collapses with the hotspot flow.
	cfg := baseCfg(50)
	cfg.NumNodes = 648
	cfg.SLThrottle = true
	cfg.Throttle = hugeIRD{dst: 5}
	g := mustGen(t, cfg)
	until := sim.Time(5 * sim.Millisecond)
	pkts := drain(g, until)
	// The first hotspot packet arms a 1s shared gate; nothing else may
	// leave this node within the window (at most the few packets sent
	// before the hotspot flow is scheduled).
	if len(pkts) > 4 {
		t.Fatalf("SL gate leaked %d packets", len(pkts))
	}
}

func TestSLThrottleUnthrottledBehavesNormally(t *testing.T) {
	cfg := baseCfg(50)
	cfg.SLThrottle = true // no Throttle attached: gate is just pacing
	g := mustGen(t, cfg)
	pkts := drain(g, sim.Time(2*sim.Millisecond))
	var bytes int64
	for _, p := range pkts {
		bytes += int64(p.PayloadBytes)
	}
	want := cfg.InjectionRate.BytesIn(2 * sim.Millisecond)
	if f := float64(bytes) / float64(want); f < 0.90 || f > 1.01 {
		t.Fatalf("SL-gated node offered %.2f of its rate", f)
	}
}

func TestBacklogCapBoundsQueues(t *testing.T) {
	// Throttle everything: after the caps fill, generation must stop.
	cfg := baseCfg(50)
	cfg.BacklogCap = 3
	cfg.Throttle = hugeIRD{dst: 5}
	g := mustGen(t, cfg)
	// Make the uniform stream unthrottled but never pull packets:
	// repeatedly call Pull at t=0 only.
	p, _ := g.Pull(0)
	if p == nil {
		t.Fatal("first pull empty")
	}
	for i := 0; i < 100; i++ {
		g.Pull(0) // no time passes; budgets don't grow
	}
	hot, uni := g.GeneratedBytes()
	capBytes := int64(3 * ib.MessageBytes)
	if hot > capBytes || uni > capBytes {
		t.Fatalf("backlog cap breached: hot=%d uni=%d cap=%d", hot, uni, capBytes)
	}
}

func TestPacketization(t *testing.T) {
	cases := []struct {
		msgBytes int
		sizes    []int
	}{
		{4096, []int{2048, 2048}},
		{2048, []int{2048}},
		{5000, []int{2048, 2048, 904}},
		{100, []int{100}},
	}
	for _, c := range cases {
		cfg := baseCfg(100)
		cfg.MsgBytes = c.msgBytes
		g := mustGen(t, cfg)
		var pkts []*ib.Packet
		now := sim.Time(0)
		for len(pkts) < len(c.sizes) {
			p, wake := g.Pull(now)
			if p == nil {
				now = wake
				continue
			}
			pkts = append(pkts, p)
		}
		for i, p := range pkts {
			if p.PayloadBytes != c.sizes[i] {
				t.Errorf("msg %d pkt %d: %d bytes, want %d", c.msgBytes, i, p.PayloadBytes, c.sizes[i])
			}
			if int(p.MsgPackets) != len(c.sizes) || int(p.MsgSeq) != i {
				t.Errorf("msg %d pkt %d: seq %d/%d", c.msgBytes, i, p.MsgSeq, p.MsgPackets)
			}
			if p.MsgID != 0 {
				t.Errorf("first message ID = %d", p.MsgID)
			}
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	seq := func() []ib.LID {
		cfg := baseCfg(30)
		cfg.RNG = sim.NewRNG(7)
		g := mustGen(t, cfg)
		var dsts []ib.LID
		for _, p := range drain(g, sim.Time(sim.Millisecond)) {
			dsts = append(dsts, p.Dst)
		}
		return dsts
	}
	a, b := seq(), seq()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
}

func TestStaticTarget(t *testing.T) {
	if StaticTarget(9).Target(sim.Time(12345)) != 9 {
		t.Fatal("static target moved")
	}
}

func TestMovingTargetSlots(t *testing.T) {
	mt := &MovingTarget{Lifetime: sim.Millisecond, Seq: []ib.LID{3, 7, 11}}
	cases := []struct {
		at   sim.Time
		want ib.LID
	}{
		{0, 3},
		{sim.Time(sim.Millisecond) - 1, 3},
		{sim.Time(sim.Millisecond), 7},
		{sim.Time(2 * sim.Millisecond), 11},
		{sim.Time(3 * sim.Millisecond), 3}, // cycles
	}
	for _, c := range cases {
		if got := mt.Target(c.at); got != c.want {
			t.Errorf("Target(%v) = %d, want %d", c.at, got, c.want)
		}
	}
	if got := mt.SlotEnd(sim.Time(1500 * sim.Microsecond)); got != sim.Time(2*sim.Millisecond) {
		t.Errorf("SlotEnd = %v", got)
	}
	if got := mt.SlotEnd(0); got != sim.Time(sim.Millisecond) {
		t.Errorf("SlotEnd(0) = %v", got)
	}
}

func TestNewMovingTargetRandom(t *testing.T) {
	rng := sim.NewRNG(3)
	mt := NewMovingTarget(sim.Millisecond, 100, 648, rng)
	seen := map[ib.LID]bool{}
	for _, l := range mt.Seq {
		if l < 0 || l >= 648 {
			t.Fatalf("target %d out of range", l)
		}
		seen[l] = true
	}
	if len(seen) < 50 {
		t.Fatalf("only %d distinct targets in 100 slots", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad args")
		}
	}()
	NewMovingTarget(0, 1, 10, rng)
}

func TestSelfTargetedSlotIdles(t *testing.T) {
	// Slot 0 targets the node itself: the hotspot stream must stay
	// silent during it and resume in slot 1.
	cfg := baseCfg(100)
	cfg.Hotspot = &MovingTarget{Lifetime: sim.Millisecond, Seq: []ib.LID{0, 5}}
	g := mustGen(t, cfg)

	p, wake := g.Pull(0)
	if p != nil {
		t.Fatal("emitted while self-targeted")
	}
	if wake != sim.Time(sim.Millisecond) {
		t.Fatalf("wake = %v, want the slot boundary", wake)
	}
	pkts := drain(g, sim.Time(2*sim.Millisecond-1))
	if len(pkts) == 0 {
		t.Fatal("never resumed after self-targeted slot")
	}
	for _, pk := range pkts {
		if pk.Dst != 5 {
			t.Fatalf("packet to %d during slot 1", pk.Dst)
		}
	}
}

func TestMovingTargetChangesDestinations(t *testing.T) {
	cfg := baseCfg(100)
	cfg.Hotspot = &MovingTarget{Lifetime: 500 * sim.Microsecond, Seq: []ib.LID{2, 9, 13}}
	g := mustGen(t, cfg)
	byDst := map[ib.LID]int{}
	for _, p := range drain(g, sim.Time(1490*sim.Microsecond)) {
		byDst[p.Dst]++
	}
	for _, want := range []ib.LID{2, 9, 13} {
		if byDst[want] == 0 {
			t.Fatalf("hotspot %d never targeted: %v", want, byDst)
		}
	}
	if len(byDst) != 3 {
		t.Fatalf("unexpected destinations: %v", byDst)
	}
}

func TestMovingBudgetContinuity(t *testing.T) {
	// A hotspot move must not reset or double the hotspot budget: the
	// total hotspot bytes over a window spanning several slots stays
	// within the Frame I bound.
	cfg := baseCfg(70)
	cfg.Hotspot = &MovingTarget{Lifetime: 300 * sim.Microsecond, Seq: []ib.LID{2, 9, 13, 4}}
	g := mustGen(t, cfg)
	until := sim.Time(2 * sim.Millisecond)
	drain(g, until)
	hot, uni := g.GeneratedBytes()
	hotCap := (cfg.InjectionRate * 70 / 100).BytesIn(until.Sub(0)) + int64(ib.MessageBytes)
	uniCap := (cfg.InjectionRate * 30 / 100).BytesIn(until.Sub(0)) + int64(ib.MessageBytes)
	if hot > hotCap {
		t.Fatalf("hotspot stream over budget across moves: %d > %d", hot, hotCap)
	}
	if uni > uniCap {
		t.Fatalf("uniform stream over budget: %d > %d", uni, uniCap)
	}
	// And the stream must actually use most of its budget (no stall at
	// slot boundaries).
	if float64(hot) < 0.9*float64(hotCap) {
		t.Fatalf("hotspot stream stalled across moves: %d of %d", hot, hotCap)
	}
}

func TestHotspotVLAssignment(t *testing.T) {
	cfg := baseCfg(50)
	cfg.HotspotVL = 1
	g := mustGen(t, cfg)
	pkts := drain(g, sim.Time(sim.Millisecond))
	var sawHot, sawUni bool
	for _, p := range pkts {
		if p.Hotspot {
			sawHot = true
			if p.VL != 1 || p.SL != 1 {
				t.Fatalf("hotspot packet on VL %d SL %d", p.VL, p.SL)
			}
		} else {
			sawUni = true
			if p.VL != 0 {
				t.Fatalf("uniform packet on VL %d", p.VL)
			}
		}
	}
	if !sawHot || !sawUni {
		t.Fatal("both streams must emit")
	}
}

func TestGeneratedBytesAccessors(t *testing.T) {
	g := mustGen(t, baseCfg(100))
	if h, u := g.GeneratedBytes(); h != 0 || u != 0 {
		t.Fatal("fresh generator generated bytes")
	}
	g.Pull(0)
	if h, _ := g.GeneratedBytes(); h == 0 {
		t.Fatal("no hotspot bytes after pull")
	}
}

// TestSlotsBoundedAtPaperScale: flow state follows the backlog, not the
// fabric. After 5 ms of uniform traffic on the paper's 648 nodes the
// generator has sent to nearly all of them and still holds a handful of
// slots.
func TestSlotsBoundedAtPaperScale(t *testing.T) {
	cfg := baseCfg(0)
	cfg.NumNodes = 648
	g := mustGen(t, cfg)
	dsts := map[ib.LID]bool{}
	for _, p := range drain(g, sim.Time(5*sim.Millisecond)) {
		dsts[p.Dst] = true
	}
	if len(dsts) < 600 {
		t.Fatalf("only %d destinations reached; the bound below would prove nothing", len(dsts))
	}
	if len(g.slots) > 2*g.flowCap || len(g.dsts) != len(g.slots) {
		t.Fatalf("%d slots (%d keys) for flowCap %d after %d destinations", len(g.slots), len(g.dsts), g.flowCap, len(dsts))
	}
}

// TestSlotsNewGeneratorAllocatesByFlowCap: building a node costs the same
// few small objects on 16 nodes and on 648.
func TestSlotsNewGeneratorAllocatesByFlowCap(t *testing.T) {
	build := func(n int) (allocs float64, bytes uint64) {
		cfg := baseCfg(50)
		cfg.NumNodes = n
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(100, func() { mustGen(t, cfg) })
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 101
	}
	smallAllocs, smallBytes := build(16)
	bigAllocs, bigBytes := build(648)
	if bigAllocs != smallAllocs || bigBytes > smallBytes+64 {
		t.Fatalf("NewGenerator: %v allocs / %d B on 648 nodes, %v / %d B on 16", bigAllocs, bigBytes, smallAllocs, smallBytes)
	}
	if g := mustGen(t, baseCfg(50)); bigBytes > uint64(64*g.flowCap+512) {
		t.Fatalf("NewGenerator allocates %d B for flowCap %d", bigBytes, g.flowCap)
	}
}

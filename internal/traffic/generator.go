package traffic

import (
	"fmt"

	"repro/internal/ib"
	"repro/internal/sim"
)

// Throttle is the congestion-control injection-rate-delay oracle; the CC
// manager implements it. A nil Throttle means CC is off.
type Throttle interface {
	// IRD returns the delay to insert after a packet of the given wire
	// size on flow src→dst.
	IRD(src, dst ib.LID, wireBytes int) sim.Duration
}

// NodeConfig parameterizes one node's generator.
type NodeConfig struct {
	// LID is the sending node.
	LID ib.LID
	// NumNodes is the network size; uniform destinations are drawn from
	// [0, NumNodes) excluding LID.
	NumNodes int
	// PPercent is the hotspot share p of the offered load, 0–100.
	PPercent int
	// Hotspot supplies the hotspot destination; required when
	// PPercent > 0.
	Hotspot Targeter
	// InjectionRate is the node's total offered load (the paper's
	// nodes offer 13.5 Gbit/s, their maximum injection capacity).
	InjectionRate sim.Rate
	// MsgBytes is the application message size (default 4096 = two MTU
	// packets, as in all the paper's experiments).
	MsgBytes int
	// BacklogCap bounds, per stream, how many messages may sit in the
	// flow queues awaiting injection (default 8). It models the finite
	// set of outstanding work requests of a real HCA: enough to keep
	// unthrottled flows busy, small enough that a throttled flow's
	// backlog cannot grow without bound.
	BacklogCap int
	// Throttle applies CC injection delays; nil disables throttling.
	Throttle Throttle
	// SLThrottle applies the CC delay to the whole service level: one
	// shared injection gate spaces consecutive packets of the node
	// regardless of flow, modeling CC operating at the SL level
	// (paired with cc.Params.SLLevel). The default is per-QP gating.
	SLThrottle bool
	// HotspotVL carries the hotspot stream on this virtual lane
	// (uniform traffic stays on VL 0), modeling the set-aside-queue
	// family of congestion management the paper's introduction
	// contrasts with throttling: victim flows bypass the congestion
	// tree on their own lane while its root cause persists. The fabric
	// must be configured with enough VLs.
	HotspotVL ib.VL
	// Pool supplies packet memory; wire the network's pool
	// (fabric.Network.PacketPool) so the sink's releases feed the
	// generator's acquisitions and steady state allocates nothing. A
	// nil pool falls back to plain heap allocation.
	Pool *ib.PacketPool
	// RNG drives destination choice; required.
	RNG *sim.RNG
}

// stream is one of the node's two independently paced traffic classes.
type stream struct {
	rate      sim.Rate // budget accrual rate
	hotspot   bool
	generated int64 // bytes handed to flow queues since t=0
	backlog   int   // messages currently queued awaiting injection
}

// flowSlot carries the state of one live flow (QP): the packets awaiting
// injection, the CC-imposed earliest next injection time and how many
// entries of the active list point at it. Its destination is
// Generator.dsts at the same index.
type flowSlot struct {
	q           ib.PacketQueue
	nextAllowed sim.Time
	refs        int32
}

// Generator implements fabric.Source for one node. It owns per-flow (QP)
// queues and schedules among them: a packet is eligible when its flow's
// CC delay has elapsed; eligible flows are served round-robin. The two
// streams refill the queues under their cumulative budgets, so hotspot
// and non-hotspot traffic stay independent per Frame I.
//
// Flow state is sized by the work in flight, not by the fabric: a node
// keeps a slot per live flow — one with queued packets, an entry on the
// active list or an unexpired gate — and the backlog caps bound how many
// of those exist at once. Any other slot is indistinguishable from a
// flow never sent to (its gate is only ever compared with After(now),
// and now never runs backwards), so the next new destination takes it
// over.
type Generator struct {
	cfg     NodeConfig
	streams []stream
	// dsts and slots are parallel: dsts is the packed key array a
	// lookup scans, slots the state behind each key.
	dsts  []ib.LID
	slots []flowSlot
	hand  int // where slotFor resumes looking for a dead slot
	// active lists slot indices in round-robin order. A flow is listed
	// once per message generated into its empty queue and unlisted
	// lazily, so it can be listed — and is then served — several times
	// per round (DESIGN.md §3).
	active []int32
	rr     int
	// flowCap bounds any one flow's queue: every stream's full message
	// backlog aimed at the same destination. It also bounds the flows
	// with queued packets, so the slot tables are pre-sized to it.
	flowCap int

	// now is the latest Pull instant: what "expired" is judged against
	// wherever the caller's clock is not at hand.
	now sim.Time
	// slGate is the shared next-injection time under SLThrottle.
	slGate sim.Time

	nextMsgID uint64
	pktSeq    uint64
}

// NewGenerator validates cfg and builds the node's generator.
func NewGenerator(cfg NodeConfig) (*Generator, error) {
	gs, err := NewGenerators([]NodeConfig{cfg})
	if err != nil {
		return nil, err
	}
	return gs[0], nil
}

// NewGenerators validates cfgs and builds one generator per config. The
// generators, their streams and their dsts / slots / active tables are
// each carved from one backing array, so building a fabric's sources
// makes the same few allocations however many hosts it has. A table
// is capped at its generator's flowCap: one that outgrows it
// reallocates on its own instead of spilling into the next generator's.
func NewGenerators(cfgs []NodeConfig) ([]*Generator, error) {
	gens := make([]Generator, len(cfgs))
	streams := make([]stream, 0, 2*len(cfgs))
	flows := 0
	for i := range gens {
		cfg, err := validate(cfgs[i])
		if err != nil {
			return nil, fmt.Errorf("traffic: node %d: %w", cfgs[i].LID, err)
		}
		g := &gens[i]
		g.cfg = cfg
		k := len(streams)
		if cfg.PPercent > 0 {
			streams = append(streams, stream{
				rate:    cfg.InjectionRate * sim.Rate(cfg.PPercent) / 100,
				hotspot: true,
			})
		}
		if cfg.PPercent < 100 {
			streams = append(streams, stream{
				rate: cfg.InjectionRate * sim.Rate(100-cfg.PPercent) / 100,
			})
		}
		g.streams = streams[k:len(streams):len(streams)]
		pktsPerMsg := (cfg.MsgBytes + ib.MTU - 1) / ib.MTU
		g.flowCap = cfg.BacklogCap * pktsPerMsg * len(g.streams)
		flows += g.flowCap
	}
	dsts := make([]ib.LID, flows)
	slots := make([]flowSlot, flows)
	active := make([]int32, flows)
	out := make([]*Generator, len(gens))
	at := 0
	for i := range gens {
		g := &gens[i]
		end := at + g.flowCap
		g.dsts, g.slots, g.active = dsts[at:at:end], slots[at:at:end], active[at:at:end]
		at = end
		out[i] = g
	}
	return out, nil
}

// validate checks cfg and fills in its defaults.
func validate(cfg NodeConfig) (NodeConfig, error) {
	if cfg.NumNodes < 2 {
		return cfg, fmt.Errorf("need >= 2 nodes")
	}
	if cfg.PPercent < 0 || cfg.PPercent > 100 {
		return cfg, fmt.Errorf("p = %d out of [0,100]", cfg.PPercent)
	}
	if cfg.PPercent > 0 && cfg.Hotspot == nil {
		return cfg, fmt.Errorf("p > 0 requires a hotspot targeter")
	}
	if cfg.RNG == nil {
		return cfg, fmt.Errorf("RNG required")
	}
	if cfg.InjectionRate <= 0 {
		return cfg, fmt.Errorf("non-positive injection rate")
	}
	if cfg.MsgBytes == 0 {
		cfg.MsgBytes = ib.MessageBytes
	}
	if cfg.MsgBytes < 1 || cfg.MsgBytes > 64*ib.MTU {
		return cfg, fmt.Errorf("message size %d out of range", cfg.MsgBytes)
	}
	if cfg.BacklogCap == 0 {
		cfg.BacklogCap = 8
	}
	if cfg.BacklogCap < 1 {
		return cfg, fmt.Errorf("backlog cap must be positive")
	}
	return cfg, nil
}

// GeneratedBytes returns the bytes each stream has handed to the flow
// queues (hotspot stream first when present); tests use it to verify the
// Frame I budget invariant.
func (g *Generator) GeneratedBytes() (hotspot, uniform int64) {
	for i := range g.streams {
		if s := &g.streams[i]; s.hotspot {
			hotspot = s.generated
		} else {
			uniform = s.generated
		}
	}
	return
}

// PendingPackets returns how many generated packets sit in the flow
// queues awaiting injection. Together with the fabric's custody census
// it closes the packet conservation law the runtime invariant checker
// sweeps: every live pool packet is either here or held by the fabric.
func (g *Generator) PendingPackets() int {
	n := 0
	for i := range g.slots {
		n += g.slots[i].q.Len()
	}
	return n
}

// Pull implements fabric.Source.
func (g *Generator) Pull(now sim.Time) (*ib.Packet, sim.Time) {
	g.now = now
	g.refill(now)

	// Round-robin over flows with queued packets whose CC delay has
	// elapsed. The active list is small: it holds at most the flows
	// with a queued backlog (bounded by the backlog caps).
	n := len(g.active)
	if n > 0 {
		g.rr %= n
	}
	for i := 0; i < n; i++ {
		k := g.rr + i
		if k >= n {
			k -= n
		}
		fl := &g.slots[g.active[k]]
		if fl.q.Empty() {
			// Lazily drop drained flows from the active list.
			fl.refs--
			g.active[k] = g.active[n-1]
			g.active = g.active[:n-1]
			n--
			i--
			if g.rr >= n && n > 0 {
				g.rr = 0
			}
			continue
		}
		if g.gate(fl).After(now) {
			continue
		}
		p := fl.q.Pop()
		g.rr = k + 1
		if g.rr >= len(g.active) {
			g.rr = 0
		}
		// A message leaves the backlog when its last packet goes.
		if int(p.MsgSeq) == int(p.MsgPackets)-1 {
			g.streamOf(p).backlog--
		}
		delay := g.cfg.InjectionRate.TxTime(p.WireBytes())
		if g.cfg.Throttle != nil {
			delay += g.cfg.Throttle.IRD(g.cfg.LID, p.Dst, p.WireBytes())
		}
		if g.cfg.SLThrottle {
			g.slGate = now.Add(delay)
		} else {
			fl.nextAllowed = now.Add(delay)
		}
		return p, 0
	}

	return nil, g.nextWake(now)
}

// gate returns the earliest injection time applying to fl: the shared
// service-level gate under SLThrottle, the flow's own otherwise.
func (g *Generator) gate(fl *flowSlot) sim.Time {
	if g.cfg.SLThrottle {
		return g.slGate
	}
	return fl.nextAllowed
}

// live reports whether the slot still carries state a flow never sent to
// would not: queued packets, an active-list entry or a gate still ahead
// of now.
func (fl *flowSlot) live(now sim.Time) bool {
	return !fl.q.Empty() || fl.refs > 0 || fl.nextAllowed.After(now)
}

// findSlot returns the index of dst's slot, or -1.
func (g *Generator) findSlot(dst ib.LID) int {
	for i, d := range g.dsts {
		if d == dst {
			return i
		}
	}
	return -1
}

// slotFor returns the index of dst's slot. A destination without one
// takes over a slot that is no longer live, or a new one when every slot
// is. The search for a dead slot resumes where the last one ended: the
// slots just behind the hand were handed out most recently and are the
// likeliest to be still live.
func (g *Generator) slotFor(dst ib.LID, now sim.Time) int {
	if i := g.findSlot(dst); i >= 0 {
		return i
	}
	n := len(g.slots)
	for k := 0; k < n; k++ {
		i := g.hand + k
		if i >= n {
			i -= n
		}
		if fl := &g.slots[i]; !fl.live(now) {
			fl.nextAllowed = 0
			g.dsts[i] = dst
			g.hand = i + 1
			if g.hand == n {
				g.hand = 0
			}
			return i
		}
	}
	g.dsts = append(g.dsts, dst)
	g.slots = append(g.slots, flowSlot{})
	g.hand = 0
	return n
}

// streamOf maps a packet back to the stream that generated it.
func (g *Generator) streamOf(p *ib.Packet) *stream {
	for i := range g.streams {
		if s := &g.streams[i]; s.hotspot == p.Hotspot {
			return s
		}
	}
	panic("traffic: packet from unknown stream")
}

// refill lets each stream generate messages its cumulative budget and
// backlog cap allow at the current time.
func (g *Generator) refill(now sim.Time) {
	for i := range g.streams {
		s := &g.streams[i]
		for s.backlog < g.cfg.BacklogCap && s.generated <= s.rate.BytesIn(now.Sub(0)) {
			if !g.generate(s, now) {
				break
			}
		}
	}
}

// generate creates one message on stream s and queues its packets on the
// destination's flow. It reports false when no destination is available
// (the hotspot targeter pointed at the node itself).
func (g *Generator) generate(s *stream, now sim.Time) bool {
	var dst ib.LID
	if s.hotspot {
		dst = g.cfg.Hotspot.Target(now)
		if dst == g.cfg.LID {
			// A node cannot be its own hotspot; it stays idle for
			// this slot (the budget keeps accruing).
			return false
		}
	} else {
		r := g.cfg.RNG.Intn(g.cfg.NumNodes - 1)
		if r >= int(g.cfg.LID) {
			r++
		}
		dst = ib.LID(r)
	}
	idx := g.slotFor(dst, now)
	fl := &g.slots[idx]
	if fl.q.Empty() {
		// Also when a drained entry is still listed: see active.
		g.active = append(g.active, int32(idx))
		fl.refs++
	}
	msgID := g.nextMsgID
	g.nextMsgID++
	remaining := g.cfg.MsgBytes
	var nPkts uint8
	for remaining > 0 {
		nPkts++
		remaining -= min(remaining, ib.MTU)
	}
	var vl ib.VL
	if s.hotspot {
		vl = g.cfg.HotspotVL
	}
	remaining = g.cfg.MsgBytes
	for seq := uint8(0); seq < nPkts; seq++ {
		size := min(remaining, ib.MTU)
		remaining -= size
		p := g.cfg.Pool.Get()
		p.ID = g.pktSeq
		p.Type = ib.DataPacket
		p.Src = g.cfg.LID
		p.Dst = dst
		p.VL = vl
		p.SL = ib.SL(vl)
		p.PayloadBytes = size
		p.Hotspot = s.hotspot
		p.MsgID = msgID
		p.MsgSeq = seq
		p.MsgPackets = nPkts
		fl.q.Push(p)
		g.pktSeq++
	}
	s.generated += int64(g.cfg.MsgBytes)
	s.backlog++
	return true
}

// nextWake computes the earliest future instant anything can become
// eligible: a queued flow's CC delay expiring, a stream's budget
// allowing its next message, or a moving hotspot slot boundary freeing a
// self-targeted stream.
func (g *Generator) nextWake(now sim.Time) sim.Time {
	wake := sim.MaxTime
	for _, idx := range g.active {
		fl := &g.slots[idx]
		if t := g.gate(fl); !fl.q.Empty() && t.After(now) && t.Before(wake) {
			wake = t
		}
	}
	for i := range g.streams {
		s := &g.streams[i]
		if s.backlog >= g.cfg.BacklogCap {
			continue // replenished by a later Pull draining the queue
		}
		t := sim.Time(0).Add(s.rate.TxTime(int(s.generated)))
		if !t.After(now) {
			if s.generated <= s.rate.BytesIn(now.Sub(0)) {
				// Budget is available now but generate() declined —
				// the hotspot points at this node; retry at the slot
				// change (a static self-target never clears).
				if mt, ok := g.cfg.Hotspot.(*MovingTarget); ok && s.hotspot {
					t = mt.SlotEnd(now)
				} else {
					continue
				}
			} else {
				// TxTime rounding placed the crossing a hair before
				// the true budget boundary; nudge past it.
				t = now.Add(sim.Picosecond)
			}
		}
		if t.Before(wake) {
			wake = t
		}
	}
	return wake
}

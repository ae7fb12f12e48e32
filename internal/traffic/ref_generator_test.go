package traffic

// refGenerator is the pre-slot generator kept verbatim as the reference
// of TestDifferentialAgainstReference: a NumNodes-entry []*refFlow table,
// a heap flow per destination ever sent to and a slice queue behind
// each. Only the type names changed. Do not "fix" anything here — its
// quirks (see TestDifferentialPinsRepeatedActiveEntries) are the contract
// the live Generator is held to.

import (
	"encoding/json"

	"repro/internal/ckpt"
	"repro/internal/ib"
	"repro/internal/sim"
)

// newRefGenerator builds the reference from cfg as NewGenerator
// validated and defaulted it (pass Generator.cfg with a fresh RNG).
func newRefGenerator(cfg NodeConfig) *refGenerator {
	g := &refGenerator{cfg: cfg}
	if cfg.PPercent > 0 {
		g.streams = append(g.streams, &stream{
			rate:    cfg.InjectionRate * sim.Rate(cfg.PPercent) / 100,
			hotspot: true,
		})
	}
	if cfg.PPercent < 100 {
		g.streams = append(g.streams, &stream{
			rate: cfg.InjectionRate * sim.Rate(100-cfg.PPercent) / 100,
		})
	}
	pktsPerMsg := (cfg.MsgBytes + ib.MTU - 1) / ib.MTU
	g.flowCap = cfg.BacklogCap * pktsPerMsg * len(g.streams)
	g.active = make([]*refFlow, 0, cfg.NumNodes-1)
	return g
}

// refFlow carries per-destination (QP) state: the queue of packets awaiting
// injection and the CC-imposed earliest next injection time.
type refFlow struct {
	dst         ib.LID
	q           []*ib.Packet
	nextAllowed sim.Time
}

// refGenerator implements fabric.Source for one node. It owns per-flow (QP)
// queues and schedules among them: a packet is eligible when its flow's
// CC delay has elapsed; eligible flows are served round-robin. The two
// streams refill the queues under their cumulative budgets, so hotspot
// and non-hotspot traffic stay independent per Frame I.
type refGenerator struct {
	cfg     NodeConfig
	streams []*stream
	// flows is indexed by destination LID and allocated with the first
	// message; nil entries are destinations never sent to.
	flows  []*refFlow
	active []*refFlow // flows with queued packets, round-robin order
	rr     int
	// flowCap bounds any one flow's queue: every stream's full message
	// backlog aimed at the same destination. Queues are pre-sized to it
	// so steady state never grows them.
	flowCap int

	// slGate is the shared next-injection time under SLThrottle.
	slGate sim.Time

	nextMsgID uint64
	pktSeq    uint64
}

// GeneratedBytes returns the bytes each stream has handed to the flow
// queues (hotspot stream first when present); tests use it to verify the
// Frame I budget invariant.
func (g *refGenerator) GeneratedBytes() (hotspot, uniform int64) {
	for _, s := range g.streams {
		if s.hotspot {
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
func (g *refGenerator) PendingPackets() int {
	n := 0
	for _, fl := range g.flows {
		if fl != nil {
			n += len(fl.q)
		}
	}
	return n
}

// Pull implements fabric.Source.
func (g *refGenerator) Pull(now sim.Time) (*ib.Packet, sim.Time) {
	g.refill(now)

	// Round-robin over flows with queued packets whose CC delay has
	// elapsed. The active list is small: it holds at most the flows
	// with a queued backlog (bounded by the backlog caps).
	n := len(g.active)
	if n > 0 {
		g.rr %= n
	}
	for i := 0; i < n; i++ {
		k := (g.rr + i) % n
		fl := g.active[k]
		if len(fl.q) == 0 {
			// Lazily drop drained flows from the active list.
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
		p := fl.q[0]
		copy(fl.q, fl.q[1:])
		fl.q[len(fl.q)-1] = nil
		fl.q = fl.q[:len(fl.q)-1]
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
			delay += g.cfg.Throttle.IRD(g.cfg.LID, fl.dst, p.WireBytes())
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
func (g *refGenerator) gate(fl *refFlow) sim.Time {
	if g.cfg.SLThrottle {
		return g.slGate
	}
	return fl.nextAllowed
}

// streamOf maps a packet back to the stream that generated it.
func (g *refGenerator) streamOf(p *ib.Packet) *stream {
	for _, s := range g.streams {
		if s.hotspot == p.Hotspot {
			return s
		}
	}
	panic("traffic: packet from unknown stream")
}

// refill lets each stream generate messages its cumulative budget and
// backlog cap allow at the current time.
func (g *refGenerator) refill(now sim.Time) {
	for _, s := range g.streams {
		for s.backlog < g.cfg.BacklogCap && s.generated <= s.rate.BytesIn(now.Sub(0)) {
			if !g.generate(s, now) {
				break
			}
		}
	}
}

// generate creates one message on stream s and queues its packets on the
// destination's refFlow. It reports false when no destination is available
// (the hotspot targeter pointed at the node itself).
func (g *refGenerator) generate(s *stream, now sim.Time) bool {
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
	if g.flows == nil {
		// Not in NewGenerator: idle nodes never need the table, and at
		// paper scale the tables of all nodes together are megabytes.
		g.flows = make([]*refFlow, g.cfg.NumNodes)
	}
	fl := g.flows[dst]
	if fl == nil {
		fl = &refFlow{dst: dst, q: make([]*ib.Packet, 0, g.flowCap)}
		g.flows[dst] = fl
	}
	if len(fl.q) == 0 {
		g.active = append(g.active, fl)
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
		fl.q = append(fl.q, p)
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
func (g *refGenerator) nextWake(now sim.Time) sim.Time {
	wake := sim.MaxTime
	for _, fl := range g.active {
		if t := g.gate(fl); len(fl.q) > 0 && t.After(now) && t.Before(wake) {
			wake = t
		}
	}
	for _, s := range g.streams {
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

// ExportState returns the generator's mutable state as a package-owned
// JSON blob, interning queued packets into tab. Flows are emitted in
// destination order; the active list's round-robin order is kept
// separately and exactly.
func (g *refGenerator) ExportState(tab *ckpt.PacketTable) ([]byte, error) {
	st := genState{
		Streams:   make([]streamState, len(g.streams)),
		RR:        g.rr,
		SLGate:    g.slGate,
		NextMsgID: g.nextMsgID,
		PktSeq:    g.pktSeq,
		RNG:       g.cfg.RNG.State(),
	}
	for i, s := range g.streams {
		st.Streams[i] = streamState{Hotspot: s.hotspot, Generated: s.generated, Backlog: s.backlog}
	}
	for dst, fl := range g.flows {
		if fl == nil {
			continue
		}
		fs := flowState{Dst: dst, NextAllowed: fl.nextAllowed}
		for _, p := range fl.q {
			fs.Pkts = append(fs.Pkts, tab.Ref(p))
		}
		st.Flows = append(st.Flows, fs)
	}
	for _, fl := range g.active {
		st.Active = append(st.Active, int(fl.dst))
	}
	return json.Marshal(&st)
}

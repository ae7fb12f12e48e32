package telemetry

import (
	"repro/internal/ib"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The per-event sampler and port registry the bus's aggregate tier
// replaced, kept as test-only references (as traffic's refGenerator and
// fabric's tryTxLinear are): each is a plain stream consumer that sees
// every queue sample, stall, transmission and delivery as an Event and
// keeps its own state. TestAggregateTierMatchesPerEventReference
// (differential_test.go) attaches them beside the real sampler, checker
// and counters and demands identical snapshots and port views.

// refMsgKey is a message's identity: its source and message id.
type refMsgKey struct {
	src ib.LID
	id  uint64
}

type refPortState struct {
	vlDepth [obs.MaxVLs]int32
	depth   int32
	peak    int32
	host    bool // of the sample that set peak
}

// RefSampler is the sampler as a pure per-event bus consumer: every bin
// accumulator is advanced inside Consume.
type RefSampler struct {
	name    string
	cadence sim.Duration

	curBin    int64
	binBytes  [obs.NumClasses]int64
	binDrops  int
	binStalls int
	binIncr   int
	binDecr   int

	rows                                            []Row
	ports                                           obs.PortTable[refPortState]
	ccti                                            map[ib.FlowKey]uint16
	linksDown                                       int
	msgStart                                        map[refMsgKey]sim.Time
	completion                                      Hist
	lastTime                                        sim.Time
	consumedQueue, consumedStall, consumedDelivered uint64
}

// NewRefSampler mirrors NewSampler.
func NewRefSampler(name string, cadence sim.Duration) *RefSampler {
	if cadence <= 0 {
		cadence = DefaultCadence
	}
	return &RefSampler{
		name: name, cadence: cadence, curBin: -1,
		ccti:     make(map[ib.FlowKey]uint16),
		msgStart: make(map[refMsgKey]sim.Time),
	}
}

// Attach subscribes the reference to every kind it derives series from.
func (s *RefSampler) Attach(b *obs.Bus) {
	b.Subscribe(s,
		obs.KindPacketDelivered, obs.KindQueueSampled, obs.KindCCTIChanged,
		obs.KindCreditStalled, obs.KindLinkDown, obs.KindLinkUp,
		obs.KindPacketDropped, obs.KindMsgCompleted,
	)
}

// PerHopEvents reports how many queue samples, stalls and deliveries the
// reference consumed — proof that a differential scenario exercised the
// kinds the aggregate tier took over.
func (s *RefSampler) PerHopEvents() (queue, stall, delivered uint64) {
	return s.consumedQueue, s.consumedStall, s.consumedDelivered
}

// Consume implements obs.Consumer.
func (s *RefSampler) Consume(e obs.Event) {
	s.advance(e.Time)
	switch e.Kind {
	case obs.KindPacketDelivered:
		s.consumedDelivered++
		switch {
		case e.Type != ib.DataPacket:
			s.binBytes[obs.ClassControl] += int64(e.Bytes)
		case e.Hotspot:
			s.binBytes[obs.ClassHotspot] += int64(e.Bytes - ib.HeaderBytes)
		default:
			s.binBytes[obs.ClassOther] += int64(e.Bytes - ib.HeaderBytes)
		}
		if e.Type == ib.DataPacket && e.MsgSeq == 0 {
			s.msgStart[refMsgKey{e.Src, e.MsgID}] = e.Inject
		}
	case obs.KindQueueSampled:
		s.consumedQueue++
		if e.VL >= obs.MaxVLs {
			return
		}
		p := s.ports.At(e.Node, e.Port)
		p.depth += int32(e.QueuedBytes) - p.vlDepth[e.VL]
		p.vlDepth[e.VL] = int32(e.QueuedBytes)
		if p.depth > p.peak {
			p.peak, p.host = p.depth, e.HostPort
		}
	case obs.KindCCTIChanged:
		if e.NewCCTI > e.OldCCTI {
			s.binIncr++
		} else if e.NewCCTI < e.OldCCTI {
			s.binDecr++
		}
		if e.NewCCTI == 0 {
			delete(s.ccti, e.Flow())
		} else {
			s.ccti[e.Flow()] = e.NewCCTI
		}
	case obs.KindCreditStalled:
		s.consumedStall++
		s.binStalls++
	case obs.KindLinkDown:
		s.linksDown++
	case obs.KindLinkUp:
		if s.linksDown > 0 {
			s.linksDown--
		}
	case obs.KindPacketDropped:
		s.binDrops++
	case obs.KindMsgCompleted:
		k := refMsgKey{e.Src, e.MsgID}
		start, ok := s.msgStart[k]
		if !ok {
			start = e.Inject
		} else {
			delete(s.msgStart, k)
		}
		s.completion.Record(int64(e.Time.Sub(start)))
	}
}

func (s *RefSampler) advance(t sim.Time) {
	if t > s.lastTime {
		s.lastTime = t
	}
	bin := (int64(t) - 1) / int64(s.cadence)
	if s.curBin < 0 {
		s.curBin = bin
		return
	}
	if bin <= s.curBin {
		return
	}
	for ; s.curBin < bin; s.curBin++ {
		s.flushBin()
	}
}

func (s *RefSampler) flushBin() {
	binSec := s.cadence.Seconds()
	r := Row{
		EndUS:       float64((s.curBin+1)*int64(s.cadence)) / float64(sim.Microsecond),
		HotspotGbps: float64(s.binBytes[obs.ClassHotspot]) * 8 / binSec / 1e9,
		OtherGbps:   float64(s.binBytes[obs.ClassOther]) * 8 / binSec / 1e9,
		ControlGbps: float64(s.binBytes[obs.ClassControl]) * 8 / binSec / 1e9,
		Drops:       float64(s.binDrops),
		Stalls:      float64(s.binStalls),
		CCTIIncr:    float64(s.binIncr),
		CCTIDecr:    float64(s.binDecr),
		Throttled:   float64(len(s.ccti)),
	}
	s.binBytes = [obs.NumClasses]int64{}
	s.binDrops, s.binStalls, s.binIncr, s.binDecr = 0, 0, 0, 0

	var total, maxP int
	s.ports.Each(func(_, _ int, p *refPortState) {
		total += int(p.depth)
		maxP = max(maxP, int(p.depth))
	})
	r.QueuedKB = float64(total) / 1024
	r.MaxPortKB = float64(maxP) / 1024

	var maxCCTI uint16
	var sum uint64
	for _, c := range s.ccti {
		maxCCTI = max(maxCCTI, c)
		sum += uint64(c)
	}
	r.MaxCCTI = float64(maxCCTI)
	if len(s.ccti) > 0 {
		r.MeanCCTI = float64(sum) / float64(len(s.ccti))
	}
	s.rows = append(s.rows, r)
}

// Finish flushes the final partial bin.
func (s *RefSampler) Finish() {
	if s.curBin >= 0 {
		s.flushBin()
		s.curBin = -1
	}
}

// Snapshot renders the reference's series in the sampler's own snapshot
// type, so the two marshal through one encoder.
func (s *RefSampler) Snapshot() SamplerSnapshot {
	var peaks obs.PortTable[portPeak]
	s.ports.Each(func(sw, port int, p *refPortState) {
		if p.peak > 0 {
			*peaks.At(sw, port) = portPeak{p.peak, p.host}
		}
	})
	return SamplerSnapshot{
		Name:       s.name,
		CadenceUS:  s.cadence.Seconds() * 1e6,
		NowUS:      s.lastTime.Seconds() * 1e6,
		Rows:       s.rows,
		LinksDown:  s.linksDown,
		Completion: s.completion.snapshot(1e-6),
		HotPorts:   hotPorts(peaks),
	}
}

// RefPortCounters is one port of the reference registry.
type RefPortCounters struct {
	FECNMarks, CreditStalls, FwdPackets, Dropped uint64
	PeakQueuedBytes                              int
	FwdBytesVL                                   [obs.MaxVLs]uint64
	HostPort                                     bool
}

// RefRegistry is the per-switch-port counter registry as a bus consumer:
// a port materializes on its first switch-side event.
type RefRegistry struct {
	ports obs.PortTable[*RefPortCounters]
}

// Attach subscribes the reference to the kinds it counts.
func (r *RefRegistry) Attach(b *obs.Bus) {
	b.Subscribe(r, obs.KindPacketSent, obs.KindFECNMarked, obs.KindCreditStalled,
		obs.KindQueueSampled, obs.KindPacketDropped)
}

// Consume implements obs.Consumer.
func (r *RefRegistry) Consume(e obs.Event) {
	if !e.Switch {
		return // HCA-side events carry no switch port
	}
	slot := r.ports.At(e.Node, e.Port)
	if *slot == nil {
		*slot = &RefPortCounters{}
	}
	c := *slot
	switch e.Kind {
	case obs.KindPacketSent:
		c.FwdPackets++
		c.FwdBytesVL[e.VL] += uint64(e.Bytes)
	case obs.KindFECNMarked:
		c.FECNMarks++
		c.HostPort = c.HostPort || e.HostPort
	case obs.KindCreditStalled:
		c.CreditStalls++
	case obs.KindQueueSampled:
		c.PeakQueuedBytes = max(c.PeakQueuedBytes, e.QueuedBytes)
		c.HostPort = c.HostPort || e.HostPort
	case obs.KindPacketDropped:
		c.Dropped++
	}
}

// Each calls f for every materialized port in (switch, port) order.
func (r *RefRegistry) Each(f func(obs.PortKey, *RefPortCounters)) {
	r.ports.Each(func(sw, port int, c **RefPortCounters) {
		if *c != nil {
			f(obs.PortKey{Switch: sw, Port: port}, *c)
		}
	})
}

// Totals and HottestPort are the old registry's reductions, verbatim.
func (r *RefRegistry) Totals() (marks, stalls, fwdPackets, fwdBytes uint64) {
	r.Each(func(_ obs.PortKey, c *RefPortCounters) {
		marks += c.FECNMarks
		stalls += c.CreditStalls
		fwdPackets += c.FwdPackets
		for _, b := range c.FwdBytesVL {
			fwdBytes += b
		}
	})
	return
}

func (r *RefRegistry) HottestPort() (obs.PortKey, *RefPortCounters) {
	var bestK obs.PortKey
	var best *RefPortCounters
	r.Each(func(k obs.PortKey, c *RefPortCounters) {
		if c.FECNMarks > 0 && (best == nil || c.FECNMarks > best.FECNMarks) {
			bestK, best = k, c
		}
	})
	return bestK, best
}

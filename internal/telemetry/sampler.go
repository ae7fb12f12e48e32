package telemetry

import (
	"sort"
	"sync"

	"repro/internal/ib"
	"repro/internal/obs"
	"repro/internal/sim"
)

// DefaultCadence is the sampling bin width: event timestamps are bucketed
// into bins of this simulated width and each completed bin becomes one
// time-series point. 10 µs resolves the paper's congestion transients
// (CCTI ramps play out over hundreds of microseconds) while a millisecond
// of simulated time costs only 100 points.
const DefaultCadence = 10 * sim.Microsecond

// hotPortsTopK bounds the hottest-ports table in snapshots.
const hotPortsTopK = 8

// portPeak is a port's queued-depth high-water mark over a run (summed
// over its lanes) and whether the port faces an HCA. A port has been
// seen iff peak > 0.
type portPeak struct {
	peak int32
	host bool
}

// HotPort is one row of the hottest-ports table: a switch output port
// ranked by its peak queued bytes over the run.
type HotPort struct {
	Switch   int     `json:"switch"`
	Port     int     `json:"port"`
	HostPort bool    `json:"host_port"`
	PeakKB   float64 `json:"peak_kb"`
}

// SamplerSnapshot is the JSON view of one run's live time series.
type SamplerSnapshot struct {
	Name      string  `json:"name"`
	CadenceUS float64 `json:"cadence_us"`
	NowUS     float64 `json:"now_us"`

	// Delivered goodput per traffic class, Gbit/s per bin.
	HotspotGbps Series `json:"hotspot_gbps"`
	OtherGbps   Series `json:"other_gbps"`
	ControlGbps Series `json:"control_gbps"`

	// Fabric occupancy at each bin boundary.
	QueuedKB  Series `json:"queued_kb"`
	MaxPortKB Series `json:"max_port_kb"`

	// Congestion-control state at each bin boundary (throttled flows and
	// the max and mean CCTI across them), and the CCTI steps per bin.
	Throttled Series `json:"throttled"`
	MaxCCTI   Series `json:"max_ccti"`
	MeanCCTI  Series `json:"mean_ccti"`
	CCTIIncr  Series `json:"ccti_incr"`
	CCTIDecr  Series `json:"ccti_decr"`

	// Fault-layer activity per bin.
	Drops  Series `json:"drops"`
	Stalls Series `json:"stalls"`

	LinksDown int `json:"links_down"`

	// Completion is the per-message completion-time histogram summary in
	// microseconds (first packet injected → last packet delivered).
	Completion HistSnapshot `json:"completion"`

	HotPorts []HotPort `json:"hot_ports"`
}

// Sampler turns one run into fixed-cadence time series. Everything a
// packet hop changes — queue depths, delivered bytes, credit stalls — it
// reads from the bus's aggregate table (obs.Registry) once per bin, when
// the bus ticks, and the table hands it every message's completion span;
// only the low-rate kinds reach it as events. Attaching it never
// schedules a simulation event, so the observed trajectory is
// byte-identical to the unobserved one.
//
// Ticks, spans and Consume run on the simulation goroutine; Snapshot may
// be called concurrently from another goroutine (Hub.Snapshot). The mutex covers what
// Snapshot reads — the rings, peaks, lastTime, linksDown and the
// completion histogram — and is taken once per tick and per stream
// event, never per packet hop or per message. reg is the bus's live
// table and spans the histogram completed messages are recorded into;
// both are touched on the simulation goroutine only, and Snapshot works
// from what the last flush copied out of them.
type Sampler struct {
	mu      sync.Mutex
	name    string
	cadence sim.Duration
	reg     *obs.Registry

	// The open bin: its index (-1 before the first event), the
	// registry's cumulative counters as of its start, and the counts
	// the stream kinds add to it.
	curBin     int64
	prevBytes  [obs.NumClasses]int64
	prevStalls uint64
	binDrops   int
	binIncr    int
	binDecr    int

	rates     [obs.NumClasses]Ring
	queued    Ring
	maxPort   Ring
	throttled Ring
	maxCCTI   Ring
	meanCCTI  Ring
	cctiIncr  Ring
	cctiDecr  Ring
	drops     Ring
	stalls    Ring

	// Continuous state read at each bin boundary.
	peaks     obs.PortTable[portPeak] // copied from reg by every flush; shaped like it
	ccti      map[ib.FlowKey]uint16   // throttled flows only: a step to 0 deletes
	linksDown int

	// Message completion spans (first packet injected → last packet
	// delivered), as the bus's table closes them: recorded into spans
	// without the lock, merged into completion at every flush.
	completion Hist
	spans      Hist

	lastTime sim.Time
}

// NewSampler returns a sampler for one run; cadence <= 0 selects
// DefaultCadence.
func NewSampler(name string, cadence sim.Duration) *Sampler {
	if cadence <= 0 {
		cadence = DefaultCadence
	}
	return &Sampler{
		name:    name,
		cadence: cadence,
		curBin:  -1,
		ccti:    make(map[ib.FlowKey]uint16),
	}
}

// Attach makes the sampler the bus's tick and span reader and
// subscribes it to the low-rate kinds it still takes as events. A nil
// sampler (telemetry off) attaches nothing, so call sites stay a single
// unconditional line.
func (s *Sampler) Attach(b *obs.Bus) {
	if s == nil {
		return
	}
	s.reg = b.Registry()
	s.prevBytes, s.prevStalls = s.reg.Delivered, s.reg.Stalls
	s.reg.SetTick(s.tick)
	s.reg.SetSpan(s.span)
	b.Subscribe(s, obs.KindCCTIChanged, obs.KindLinkDown, obs.KindLinkUp, obs.KindPacketDropped)
}

// tick is the bus's bin-boundary callback (obs.Registry.SetTick): it
// flushes the bins t has moved past and names the end of t's bin as the
// next boundary.
func (s *Sampler) tick(t sim.Time) sim.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(t)
	return sim.Time((s.curBin + 1) * int64(s.cadence))
}

// span is the bus's message-completion callback
// (obs.Registry.SetSpan).
func (s *Sampler) span(d sim.Duration) { s.spans.Record(int64(d)) }

// Consume implements obs.Consumer.
func (s *Sampler) Consume(e obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(e.Time)
	switch e.Kind {
	case obs.KindCCTIChanged:
		s.cctiChanged(e)
	case obs.KindLinkDown:
		s.linksDown++
	case obs.KindLinkUp:
		if s.linksDown > 0 {
			s.linksDown--
		}
	case obs.KindPacketDropped:
		s.binDrops++
	}
}

func (s *Sampler) cctiChanged(e obs.Event) {
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
}

// advance flushes every bin t has moved past. Bin k covers the simulated
// interval (k·cadence, (k+1)·cadence] and is stamped at its end, so a run
// to a horizon of n cadences yields exactly n points. When t lands more
// than one bin ahead (all links down, a drained fabric) the idle bins in
// between are emitted too, so the series stay on the fixed grid: zero
// rates, drops and stalls, the queue and CCTI state carried forward. A
// gap longer than the ring emits only the bins the ring would keep.
func (s *Sampler) advance(t sim.Time) {
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
	s.flushBin()
	for s.curBin = max(s.curBin+1, bin-RingCap); s.curBin < bin; s.curBin++ {
		s.flushBin()
	}
}

// flushBin turns the open bin into one point per series, stamped at the
// bin's end: what the registry's cumulative counters gained since the
// last flush, the stream kinds' counts, and the state as it stands. The
// port walk that sums the depths also copies each port's peak out for
// Snapshot.
func (s *Sampler) flushBin() {
	s.mergeSpans()
	binSec := s.cadence.Seconds()
	endUS := float64((s.curBin+1)*int64(s.cadence)) / float64(sim.Microsecond)
	for c, total := range s.reg.Delivered {
		s.rates[c].Push(endUS, float64(total-s.prevBytes[c])*8/binSec/1e9)
	}
	s.stalls.Push(endUS, float64(s.reg.Stalls-s.prevStalls))
	s.prevBytes, s.prevStalls = s.reg.Delivered, s.reg.Stalls
	s.drops.Push(endUS, float64(s.binDrops))
	s.cctiIncr.Push(endUS, float64(s.binIncr))
	s.cctiDecr.Push(endUS, float64(s.binDecr))
	s.binDrops, s.binIncr, s.binDecr = 0, 0, 0

	if s.peaks == nil {
		// Sized once, at the first flush: the fabric has declared its
		// ports by the time anything is published.
		s.peaks = obs.NewPortTable[portPeak](s.reg)
	}
	var total, maxP int
	s.reg.Each(func(k obs.PortKey, p *obs.PortCounters) {
		total += int(p.Depth)
		maxP = max(maxP, int(p.Depth))
		if p.PeakDepth > 0 {
			*s.peaks.At(k.Switch, k.Port) = portPeak{p.PeakDepth, p.HostPort}
		}
	})
	s.queued.Push(endUS, float64(total)/1024)
	s.maxPort.Push(endUS, float64(maxP)/1024)

	var maxCCTI uint16
	var sum uint64
	for _, c := range s.ccti {
		if c > maxCCTI {
			maxCCTI = c
		}
		sum += uint64(c)
	}
	mean := 0.0
	if len(s.ccti) > 0 {
		mean = float64(sum) / float64(len(s.ccti))
	}
	s.throttled.Push(endUS, float64(len(s.ccti)))
	s.maxCCTI.Push(endUS, float64(maxCCTI))
	s.meanCCTI.Push(endUS, mean)
}

// mergeSpans moves the spans recorded since the last flush into the
// completion histogram; the caller holds the lock.
func (s *Sampler) mergeSpans() {
	if s.spans.Count() > 0 {
		s.completion.Merge(&s.spans)
		s.spans.Reset()
	}
}

// Finish flushes the final partial bin. Call it once when the run ends;
// a nil sampler is a no-op.
func (s *Sampler) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mergeSpans()
	if s.curBin >= 0 {
		s.lastTime = max(s.lastTime, s.reg.Last)
		s.flushBin()
		s.curBin = -1
	}
}

// Completion returns a summary of the completion-time histogram in
// microseconds.
func (s *Sampler) Completion() HistSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.completion.snapshot(1e-6)
}

// mergeInto folds the sampler's cross-run aggregates (completion
// histogram, port peaks) into the hub's accumulators. Caller holds no
// lock on s.
func (s *Sampler) mergeInto(h *Hist, peaks *obs.PortTable[portPeak]) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h.Merge(&s.completion)
	s.peaks.Each(func(sw, port int, p *portPeak) {
		if p.peak > 0 {
			if agg := peaks.At(sw, port); p.peak > agg.peak {
				agg.peak, agg.host = p.peak, p.host
			}
		}
	})
}

// hotPorts ranks the ports that ever queued anything by peak depth,
// ties in (switch, port) order — the order the table is walked in.
func hotPorts(ports obs.PortTable[portPeak]) []HotPort {
	hp := []HotPort{} // never null in the snapshot JSON
	ports.Each(func(sw, port int, p *portPeak) {
		if p.peak > 0 {
			hp = append(hp, HotPort{Switch: sw, Port: port, HostPort: p.host, PeakKB: float64(p.peak) / 1024})
		}
	})
	sort.SliceStable(hp, func(i, j int) bool { return hp[i].PeakKB > hp[j].PeakKB })
	if len(hp) > hotPortsTopK {
		hp = hp[:hotPortsTopK]
	}
	return hp
}

// Snapshot copies the series out for serving: everything up to the last
// completed bin. It is safe to call while the run executes because it
// reads only what a flush or a stream event stored under the mutex,
// never the bus's live table.
func (s *Sampler) Snapshot() SamplerSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := SamplerSnapshot{
		Name:        s.name,
		CadenceUS:   sim.Duration(s.cadence).Seconds() * 1e6,
		NowUS:       s.lastTime.Seconds() * 1e6,
		HotspotGbps: s.rates[obs.ClassHotspot].Snapshot(),
		OtherGbps:   s.rates[obs.ClassOther].Snapshot(),
		ControlGbps: s.rates[obs.ClassControl].Snapshot(),
		QueuedKB:    s.queued.Snapshot(),
		MaxPortKB:   s.maxPort.Snapshot(),
		Throttled:   s.throttled.Snapshot(),
		MaxCCTI:     s.maxCCTI.Snapshot(),
		MeanCCTI:    s.meanCCTI.Snapshot(),
		CCTIIncr:    s.cctiIncr.Snapshot(),
		CCTIDecr:    s.cctiDecr.Snapshot(),
		Drops:       s.drops.Snapshot(),
		Stalls:      s.stalls.Snapshot(),
		LinksDown:   s.linksDown,
		Completion:  s.completion.snapshot(1e-6),
		HotPorts:    hotPorts(s.peaks),
	}
	return snap
}

var _ obs.Consumer = (*Sampler)(nil)

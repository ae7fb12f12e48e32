package telemetry

import (
	"sort"

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

// MaxBins caps the rows a sampler the command line attaches may keep:
// a Row is 104 bytes, so 1<<18 rows hold ≈ 27 MB — the paper's 120 ms
// run ≈ 20 times over at 10 µs bins, and still whole at 1 µs.
const MaxBins = 1 << 18

// Row is one bin of a run's time series, stamped at the bin's end.
type Row struct {
	EndUS float64 `json:"t_us"` // simulated microseconds

	// Delivered goodput per traffic class over the bin, Gbit/s.
	HotspotGbps float64 `json:"hotspot_gbps"`
	OtherGbps   float64 `json:"other_gbps"`
	ControlGbps float64 `json:"control_gbps"`

	// Fabric occupancy at the bin's end.
	QueuedKB  float64 `json:"queued_kb"`
	MaxPortKB float64 `json:"max_port_kb"`

	// Congestion-control state at the bin's end (throttled flows and the
	// max and mean CCTI across them), and the CCTI steps in the bin.
	Throttled float64 `json:"throttled"`
	MaxCCTI   float64 `json:"max_ccti"`
	MeanCCTI  float64 `json:"mean_ccti"`
	CCTIIncr  float64 `json:"ccti_incr"`
	CCTIDecr  float64 `json:"ccti_decr"`

	// Fault-layer activity in the bin.
	Drops  float64 `json:"drops"`
	Stalls float64 `json:"stalls"`
}

// SamplerSnapshot is the JSON view of one run's time series.
type SamplerSnapshot struct {
	Name      string  `json:"name"`
	CadenceUS float64 `json:"cadence_us"`
	NowUS     float64 `json:"now_us"`

	// Rows holds every bin of the run, oldest first.
	Rows []Row `json:"rows"`

	LinksDown int `json:"links_down"`

	// Completion is the per-message completion-time histogram summary in
	// microseconds (first packet injected → last packet delivered).
	Completion HistSnapshot `json:"completion"`

	HotPorts []HotPort `json:"hot_ports"`
}

// Sampler turns one run into a fixed-cadence time series, one Row per
// bin, kept for the whole run. Everything a packet hop changes — queue
// depths, delivered bytes, credit stalls — it reads from the bus's
// aggregate table (obs.Registry) once per bin, when the bus ticks, and
// the table hands it every message's completion span; only the
// low-rate kinds reach it as events. Attaching it never schedules a
// simulation event, so the observed trajectory is byte-identical to the
// unobserved one.
//
// A sampler belongs to its run: ticks, spans and Consume run on the
// simulation goroutine, and Finish, Snapshot and the hub's FinishRun
// read it after the run, so it takes no lock. reg is the bus's live
// table; Snapshot works from what the last flush copied out of it.
type Sampler struct {
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

	rows []Row

	// Continuous state read at each bin boundary.
	peaks     obs.PortTable[portPeak] // copied from reg by every flush; shaped like it
	ccti      map[ib.FlowKey]uint16   // throttled flows only: a step to 0 deletes
	linksDown int

	// Message completion spans (first packet injected → last packet
	// delivered), recorded as the bus's table closes them.
	completion Hist

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
	s.advance(t)
	return sim.Time((s.curBin + 1) * int64(s.cadence))
}

// span is the bus's message-completion callback
// (obs.Registry.SetSpan).
func (s *Sampler) span(d sim.Duration) { s.completion.Record(int64(d)) }

// Consume implements obs.Consumer.
func (s *Sampler) Consume(e obs.Event) {
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
// rates, drops and stalls, the queue and CCTI state carried forward.
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
	for ; s.curBin < bin; s.curBin++ {
		s.flushBin()
	}
}

// flushBin appends the open bin's row, stamped at the bin's end: what
// the registry's cumulative counters gained since the last flush, the
// stream kinds' counts, and the state as it stands. The port walk that
// sums the depths also copies each port's peak out for Snapshot.
func (s *Sampler) flushBin() {
	binSec := s.cadence.Seconds()
	gbps := func(c int) float64 { return float64(s.reg.Delivered[c]-s.prevBytes[c]) * 8 / binSec / 1e9 }
	r := Row{
		EndUS:       float64((s.curBin+1)*int64(s.cadence)) / float64(sim.Microsecond),
		HotspotGbps: gbps(obs.ClassHotspot),
		OtherGbps:   gbps(obs.ClassOther),
		ControlGbps: gbps(obs.ClassControl),
		Stalls:      float64(s.reg.Stalls - s.prevStalls),
		Drops:       float64(s.binDrops),
		CCTIIncr:    float64(s.binIncr),
		CCTIDecr:    float64(s.binDecr),
		Throttled:   float64(len(s.ccti)),
	}
	s.prevBytes, s.prevStalls = s.reg.Delivered, s.reg.Stalls
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
	r.QueuedKB, r.MaxPortKB = float64(total)/1024, float64(maxP)/1024

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

// Finish flushes the final partial bin. Call it once when the run ends;
// a nil sampler is a no-op.
func (s *Sampler) Finish() {
	if s == nil {
		return
	}
	if s.curBin >= 0 {
		s.lastTime = max(s.lastTime, s.reg.Last)
		s.flushBin()
		s.curBin = -1
	}
}

// mergeInto folds the sampler's cross-run aggregates (completion
// histogram, port peaks) into the hub's accumulators.
func (s *Sampler) mergeInto(h *Hist, peaks *obs.PortTable[portPeak]) {
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

// Snapshot returns the series: a row for every completed bin. It reads
// only what a flush or a stream event stored, never the bus's live
// table, and shares the rows, which a flush never rewrites.
func (s *Sampler) Snapshot() SamplerSnapshot {
	return SamplerSnapshot{
		Name:       s.name,
		CadenceUS:  s.cadence.Seconds() * 1e6,
		NowUS:      s.lastTime.Seconds() * 1e6,
		Rows:       s.rows[:len(s.rows):len(s.rows)],
		LinksDown:  s.linksDown,
		Completion: s.completion.snapshot(1e-6),
		HotPorts:   hotPorts(s.peaks),
	}
}

var _ obs.Consumer = (*Sampler)(nil)

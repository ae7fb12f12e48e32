package cc

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Stats aggregates the manager's activity counters for observability and
// tests.
type Stats struct {
	// FECNMarked counts data packets marked at switch output ports.
	FECNMarked uint64
	// CNPSent counts congestion notification packets generated by
	// destination CAs.
	CNPSent uint64
	// BECNReceived counts BECNs consumed by source CAs.
	BECNReceived uint64
	// ACKSent counts reliable-connection acknowledgements generated by
	// destination CAs (BECNOnACK mode only).
	ACKSent uint64
	// TimerDecrements counts CCTI decay steps applied.
	TimerDecrements uint64
	// MaxCCTI is the highest CCTI any flow reached.
	MaxCCTI uint16
}

// caFlow is one throttled flow (QP) at a source CA: its table key (see
// throttleKey) and its CCTI.
type caFlow struct {
	key  ib.LID
	ccti uint16
}

// caFlowsCap is the table capacity a CA starts with; the paper-scale
// Table II run never throttles more than 4 flows of one source at once.
const caFlowsCap = 8

// find returns the table index of key, or -1.
func (ca *caState) find(key ib.LID) int {
	for i := range ca.flows {
		if ca.flows[i].key == key {
			return i
		}
	}
	return -1
}

// caState is the per-host channel adapter CC state: the throttled-flow
// table and the CCTI timer event. The timer is free-running per CA: its
// ticks lie on a fixed grid with a per-CA phase, as in hardware, which
// desynchronizes the recovery of different sources.
type caState struct {
	// flows is the throttled-flow table, unordered and held by value:
	// a CA throttles a few flows at a time (tens at most on the paper's
	// workloads), so a scan beats hashing and a throttle episode
	// allocates nothing once the slice has grown to the working size.
	flows []caFlow
	timer *sim.Event
	tick  caTickAct // pre-bound timer callback
	phase sim.Duration
	// fecnPending, in BECNOnACK mode, remembers per remote source
	// whether the in-progress message has carried a FECN (per-flow
	// delivery is in order, so one flag per source suffices).
	fecnPending map[ib.LID]bool
}

// Manager implements the Congestion Control Manager role: it carries the
// parameter set, the per-switch marking state and the per-CA flow
// tables, and plugs into the fabric's hook points. Create it with New,
// then install Hooks() on the network before Start.
type Manager struct {
	net    *fabric.Network
	simr   *sim.Simulator
	params Params

	// mark[switchIndex][port*numVLs+vl] counts eligible departures
	// since the last FECN mark.
	mark [][]uint16

	// Per-packet hot-path caches: fabric.Network.Config returns the
	// whole Config by value, so markPacket and IRD hoist the fields
	// they need out of that copy once at construction.
	numVLs   int
	linkRate sim.Rate

	// thr memoizes ThresholdBytes(thrCap): the capacity the hooks
	// report is a per-run constant, so the threshold division runs once
	// instead of per marked packet (recomputed if capacity changes).
	thr    int
	thrCap int

	ca []caState // indexed by host LID

	stats Stats

	// bus is the flight-recorder event bus; nil disables publication.
	bus *obs.Bus
	// steps is timerTick's buffer of the CCTI decrements it publishes,
	// kept across ticks so a recorded tick allocates nothing.
	steps []obs.CCTISample
}

// New builds a manager bound to net. The caller must install
// m.Hooks() (possibly composed with other hooks) via net.SetHooks.
func New(net *fabric.Network, p Params) (*Manager, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Manager{net: net, simr: net.Sim(), params: p}
	cfg := net.Config()
	m.numVLs = cfg.NumVLs
	m.linkRate = cfg.LinkRate
	m.thrCap = cfg.SwitchIbufBytes
	m.thr = p.ThresholdBytes(m.thrCap)
	nv := cfg.NumVLs
	tp := net.Topology()
	// Every switch's row is a stretch of one slab.
	m.mark = make([][]uint16, len(net.Switches()))
	cells := 0
	for _, sw := range net.Switches() {
		cells += len(tp.Nodes[sw.NodeID()].Ports) * nv
	}
	marks := make([]uint16, cells)
	for _, sw := range net.Switches() {
		k := len(tp.Nodes[sw.NodeID()].Ports) * nv
		m.mark[sw.Index()], marks = marks[:k:k], marks[k:]
	}
	m.ca = make([]caState, net.NumHosts())
	// Every CA's table starts on its own stretch of one array, capped so
	// that outgrowing it reallocates instead of spilling into the next.
	tables := make([]caFlow, len(m.ca)*caFlowsCap)
	period := sim.Duration(p.CCTITimer) * TimerUnit
	for i := range m.ca {
		m.ca[i].flows = tables[i*caFlowsCap : i*caFlowsCap : (i+1)*caFlowsCap]
		m.ca[i].tick = caTickAct{m: m, src: ib.LID(i)}
		if period > 0 {
			// Deterministic per-CA phase of the free-running timer.
			rng := sim.SeedRNG(uint64(i) + 1)
			m.ca[i].phase = sim.Duration(rng.Uint64() % uint64(period))
		}
	}
	return m, nil
}

// Params returns the active parameter set.
func (m *Manager) Params() Params { return m.params }

// Name implements Backend: the manager is the registry's "ibcc" entry.
func (m *Manager) Name() string { return DefaultBackend }

// Throttle implements Backend: the manager is its own injection gate.
func (m *Manager) Throttle() Throttle { return m }

var _ Backend = (*Manager)(nil)

// SetBus attaches the flight-recorder event bus; the manager publishes
// FECN marks, BECN consumption and CCTI steps to it. A nil bus (the
// default) disables publication.
func (m *Manager) SetBus(b *obs.Bus) { m.bus = b }

// Stats returns a snapshot of the activity counters.
func (m *Manager) Stats() Stats { return m.stats }

// Hooks returns the fabric hooks implementing the CC mechanism. The
// congestion state is sampled at VoQ arrival or at departure depending
// on Params.MarkOnDeparture.
func (m *Manager) Hooks() fabric.Hooks {
	h := fabric.Hooks{Deliver: m.OnDeliver}
	if m.params.MarkOnDeparture {
		h.SwitchDeparture = m.OnSwitchDeparture
	} else {
		h.SwitchEnqueue = m.OnSwitchEnqueue
	}
	return h
}

// OnSwitchEnqueue implements arrival-sampled congestion detection: a
// data packet joining an output queue above the threshold on a root (or
// Victim-Masked) Port VL is FECN-marked. The marking logic is shared
// with OnSwitchDeparture.
func (m *Manager) OnSwitchEnqueue(sw, out int, p *ib.Packet, st fabric.PortVLState) {
	m.markPacket(sw, out, p, st)
}

// OnSwitchDeparture implements departure-sampled congestion detection
// and FECN marking, the literal reading of the spec's Port VL state
// machine: the VL enters the congestion state when the threshold is
// crossed and the port is either a root (credits available) or has the
// Victim Mask set; eligible packets then get FECN at the marking rate.
func (m *Manager) OnSwitchDeparture(sw, out int, p *ib.Packet, st fabric.PortVLState) {
	m.markPacket(sw, out, p, st)
}

func (m *Manager) markPacket(sw, out int, p *ib.Packet, st fabric.PortVLState) {
	if st.CapacityBytes != m.thrCap {
		m.thrCap = st.CapacityBytes
		m.thr = m.params.ThresholdBytes(st.CapacityBytes)
	}
	thr := m.thr
	if thr < 0 || st.QueuedBytes < thr {
		return
	}
	root := st.CreditBytes >= m.params.RootMinCreditBytes
	victimMasked := st.HostPort && m.params.VictimMaskHostPorts
	if !root && !victimMasked {
		return // victim of congestion: must not mark
	}
	if p.PayloadBytes < m.params.PacketSize {
		return // too small to be eligible
	}
	idx := out*m.numVLs + int(p.VL)
	cnt := &m.mark[sw][idx]
	if *cnt < m.params.MarkingRate {
		*cnt++
		return
	}
	*cnt = 0
	p.FECN = true
	m.stats.FECNMarked++
	m.bus.FECNMarked(m.simr.Now(), sw, out, st.HostPort, p, st.QueuedBytes, st.CreditBytes)
}

// OnDeliver implements both CA roles. At a destination CA, a delivered
// FECN-marked data packet triggers a notification back to the packet's
// source: an immediate CNP by default, or a BECN piggybacked on the
// message's acknowledgement in BECNOnACK mode. At a source CA, a
// delivered BECN bumps the flow's CCTI.
func (m *Manager) OnDeliver(lid ib.LID, p *ib.Packet) {
	if p.Type == ib.DataPacket {
		if m.params.BECNOnACK {
			m.ackDelivery(lid, p)
		} else if p.FECN {
			cnp := m.net.PacketPool().Get()
			cnp.Type = ib.CNPPacket
			cnp.Src = lid
			cnp.Dst = p.Src
			cnp.SL = p.SL
			cnp.VL = p.VL
			cnp.BECN = true
			m.net.HCA(lid).SendControl(cnp)
			m.stats.CNPSent++
		}
	}
	if p.BECN {
		// The notification's source is the congested destination; the
		// flow being throttled is lid -> p.Src.
		m.bus.BECNReturned(m.simr.Now(), lid, p.Src, p)
		m.onBECN(lid, p.Src)
	}
}

// ackDelivery implements the destination side of BECNOnACK: remember
// FECNs per in-progress message and acknowledge every completed message,
// carrying the BECN when any of its packets was marked.
func (m *Manager) ackDelivery(lid ib.LID, p *ib.Packet) {
	ca := &m.ca[lid]
	if ca.fecnPending == nil {
		ca.fecnPending = make(map[ib.LID]bool)
	}
	if p.FECN {
		ca.fecnPending[p.Src] = true
	}
	if int(p.MsgSeq) != int(p.MsgPackets)-1 {
		return
	}
	becn := ca.fecnPending[p.Src]
	delete(ca.fecnPending, p.Src)
	ack := m.net.PacketPool().Get()
	ack.Type = ib.AckPacket
	ack.Src = lid
	ack.Dst = p.Src
	ack.SL = p.SL
	ack.VL = p.VL
	ack.BECN = becn
	m.net.HCA(lid).SendControl(ack)
	m.stats.ACKSent++
}

// throttleKey maps a destination to the CA table key: the destination
// itself at QP level, or a synthetic per-SL key when CC operates at the
// service level (the model carries a single data SL, 0).
func (m *Manager) throttleKey(dst ib.LID) ib.LID {
	if m.params.SLLevel {
		return ib.LID(-1) // SL 0
	}
	return dst
}

// onBECN advances the CCTI of flow src→dst and arms the recovery timer.
func (m *Manager) onBECN(src, dst ib.LID) {
	m.stats.BECNReceived++
	ca := &m.ca[src]
	key := m.throttleKey(dst)
	i := ca.find(key)
	if i < 0 {
		i = len(ca.flows)
		ca.flows = append(ca.flows, caFlow{key: key, ccti: m.params.CCTIMin})
	}
	old := ca.flows[i].ccti
	ccti := old + m.params.CCTIIncrease
	if ccti > m.params.CCTILimit || ccti < old {
		ccti = m.params.CCTILimit
	}
	if ccti != old {
		// The event carries the CA table key as Dst: the destination
		// LID at QP-level CC, -1 at SL level.
		m.bus.CCTIChanged(m.simr.Now(), src, key, old, ccti)
	}
	ca.flows[i].ccti = ccti
	if ccti > m.stats.MaxCCTI {
		m.stats.MaxCCTI = ccti
	}
	m.armTimer(src)
}

// armTimer resumes the CA's free-running CCTI timer if recovery is
// enabled and it is not already running. Ticks always land on the CA's
// fixed grid (phase + k·period), so restarting after an idle stretch
// does not re-phase it.
func (m *Manager) armTimer(src ib.LID) {
	if m.params.CCTITimer == 0 {
		return
	}
	ca := &m.ca[src]
	if ca.timer != nil {
		return
	}
	period := sim.Duration(m.params.CCTITimer) * TimerUnit
	ca.timer = m.simr.ScheduleActionAt(m.nextTick(ca, period), &ca.tick)
}

// caTickAct is a CA's pre-bound timer callback; one per CA keeps the
// periodic recovery ticks allocation-free.
type caTickAct struct {
	m   *Manager
	src ib.LID
}

// Act implements sim.Action.
func (a *caTickAct) Act() { a.m.timerTick(a.src) }

// timerTick is one firing of the CA's CCTI recovery timer: every
// throttled flow steps one table entry toward recovery, and the timer
// re-arms while any flow remains throttled.
func (m *Manager) timerTick(src ib.LID) {
	ca := &m.ca[src]
	ca.timer = nil
	// Decrement steps are published sorted by table key: the map
	// iteration order is random, and the flight-recorder log must
	// be deterministic for a given seed.
	steps := m.steps[:0]
	record := m.bus.Wants(obs.KindCCTIChanged)
	for i := 0; i < len(ca.flows); {
		fl := &ca.flows[i]
		if fl.ccti > m.params.CCTIMin {
			if record {
				steps = append(steps, obs.CCTISample{Src: src, Dst: fl.key, Old: fl.ccti, New: fl.ccti - 1})
			}
			fl.ccti--
			m.stats.TimerDecrements++
		}
		if fl.ccti <= m.params.CCTIMin {
			// Fully recovered flows leave the table so the
			// periodic scan stays proportional to the number
			// of throttled flows.
			last := len(ca.flows) - 1
			*fl = ca.flows[last]
			ca.flows = ca.flows[:last]
		} else {
			i++
		}
	}
	if record {
		slices.SortFunc(steps, func(a, b obs.CCTISample) int { return cmp.Compare(a.Dst, b.Dst) })
		for _, st := range steps {
			m.bus.CCTIChanged(m.simr.Now(), st.Src, st.Dst, st.Old, st.New)
		}
		m.steps = steps
	}
	if len(ca.flows) > 0 {
		period := sim.Duration(m.params.CCTITimer) * TimerUnit
		ca.timer = m.simr.ScheduleAction(period, &ca.tick)
	}
}

// nextTick returns the first grid point of the CA's timer strictly after
// the current time.
func (m *Manager) nextTick(ca *caState, period sim.Duration) sim.Time {
	return nextGridTick(m.simr.Now(), ca.phase, period)
}

// nextGridTick returns the first point of the fixed grid phase + k·period
// strictly after now; the free-running CCTI timer lands its ticks on it
// so an idle stretch cannot re-phase it.
func nextGridTick(now sim.Time, phase, period sim.Duration) sim.Time {
	elapsed := now.Sub(sim.Time(phase))
	var k int64
	if elapsed >= 0 {
		k = int64(elapsed/period) + 1
	}
	return sim.Time(phase).Add(sim.Duration(k) * period)
}

// CheckInvariants verifies the congestion-control state machine's
// structural invariants at an event boundary: every tabled flow's CCTI
// within [CCTIMin, CCTILimit] and indexable into the CCT, and — when
// recovery is enabled — a live timer on every CA that still holds
// throttled flows (a dead timer with tabled flows is a recovery
// livelock). It returns the first violation found.
func (m *Manager) CheckInvariants() error {
	for i := range m.ca {
		ca := &m.ca[i]
		for _, fl := range ca.flows {
			if fl.ccti < m.params.CCTIMin || fl.ccti > m.params.CCTILimit {
				return fmt.Errorf("cc: ca %d flow->%d ccti %d outside [%d, %d]",
					i, fl.key, fl.ccti, m.params.CCTIMin, m.params.CCTILimit)
			}
			if int(fl.ccti) >= len(m.params.CCT) {
				return fmt.Errorf("cc: ca %d flow->%d ccti %d beyond table length %d",
					i, fl.key, fl.ccti, len(m.params.CCT))
			}
		}
		if m.params.CCTITimer > 0 && len(ca.flows) > 0 && ca.timer == nil {
			return fmt.Errorf("cc: ca %d holds %d throttled flows with no recovery timer armed",
				i, len(ca.flows))
		}
	}
	return nil
}

// CCTI returns the current table index of flow src→dst (CCTIMin when the
// flow holds no congestion state).
func (m *Manager) CCTI(src, dst ib.LID) uint16 {
	ca := &m.ca[src]
	if i := ca.find(m.throttleKey(dst)); i >= 0 {
		return ca.flows[i].ccti
	}
	return m.params.CCTIMin
}

// ThrottleSummary returns how many flows across all CAs currently hold
// congestion state and their mean CCTI (0 when none are throttled).
func (m *Manager) ThrottleSummary() (flows int, meanCCTI float64) {
	var sum uint64
	for i := range m.ca {
		for _, fl := range m.ca[i].flows {
			flows++
			sum += uint64(fl.ccti)
		}
	}
	if flows == 0 {
		return 0, 0
	}
	return flows, float64(sum) / float64(flows)
}

// ThrottledFlows returns how many flows at src currently hold congestion
// state.
func (m *Manager) ThrottledFlows(src ib.LID) int { return len(m.ca[src].flows) }

// IRD returns the injection rate delay to insert after a packet of the
// given wire size on flow src→dst: CCT[CCTI] multiples of the packet's
// serialization time at link rate. It implements the traffic package's
// Throttle interface.
func (m *Manager) IRD(src, dst ib.LID, wireBytes int) sim.Duration {
	ca := &m.ca[src]
	i := ca.find(m.throttleKey(dst))
	if i < 0 {
		return 0
	}
	mult := m.params.CCT[ca.flows[i].ccti]
	if mult == 0 {
		return 0
	}
	return sim.Duration(mult) * m.linkRate.TxTime(wireBytes)
}

// String summarizes the parameter set.
func (p Params) String() string {
	return fmt.Sprintf("cc{thr=%d mark=%d psz=%d inc=%d lim=%d min=%d timer=%d cct=%d}",
		p.Threshold, p.MarkingRate, p.PacketSize, p.CCTIIncrease,
		p.CCTILimit, p.CCTIMin, p.CCTITimer, len(p.CCT))
}

package fabric

import (
	"fmt"

	"repro/internal/ib"
)

// This file is the fabric side of the runtime invariant layer
// (internal/check): a custody census of every packet the fabric holds,
// and the rules on its credit, queue and link bookkeeping. Unlike
// CheckQuiescent, which only holds after a full drain, these hold at
// every event boundary — mid-run, and on the state a checkpoint restore
// has just overlaid (RestoreState ends with them) — so the checker can
// sweep them whenever it is attached.

// AuditCounters is the fault path's drop ledger: what the fault layer
// discarded on the wire (see Dropper). It always counts — a drop is
// rare and already costs an event — and always travels in a checkpoint.
type AuditCounters struct {
	// DroppedPackets counts the discarded packets. Dropped custody is
	// intentional, so the pool accounting law is
	// Puts == ΣRxPackets + DroppedPackets; the per-class columns below
	// break the total down for audit reports (a FECN-marked data packet
	// counts under DroppedFECN only).
	DroppedPackets int
	DroppedData    int
	DroppedFECN    int
	DroppedCNP     int
	DroppedAck     int
	// DroppedCredits counts discarded flow-control credit updates.
	// Each is deferred to the next refresh rather than lost (see
	// CreditRefreshDelay), so quiescence still balances.
	DroppedCredits int
}

// countDrop classifies a wire-dropped packet into the audit ledger.
func (a *AuditCounters) countDrop(p *ib.Packet) {
	a.DroppedPackets++
	switch {
	case p.Type == ib.CNPPacket:
		a.DroppedCNP++
	case p.Type == ib.AckPacket:
		a.DroppedAck++
	case p.FECN:
		a.DroppedFECN++
	default:
		a.DroppedData++
	}
}

// Audit returns the drop ledger.
func (n *Network) Audit() *AuditCounters { return &n.aud }

// HeldCensus breaks down the fabric's packet custody by holding site.
type HeldCensus struct {
	// Staged counts HCA send-side custody: staging buffers, control
	// queues, and the packets inside the injection DMA.
	Staged int
	// RxQueued counts HCA receive-side custody: receive queues and the
	// packets inside sink service.
	RxQueued int
	// Queued counts packets in switch virtual output queues.
	Queued int
	// Wire counts packets in flight on links: arrival scheduled, not yet
	// arrived. It is derived, not counted — every such packet is carried
	// by one arrival action, and an action is either in flight or in the
	// network's recycling pool — so it is exact at every event boundary,
	// including the one a checkpoint restore resumes from.
	Wire int
}

// Total sums the census.
func (c HeldCensus) Total() int { return c.Staged + c.RxQueued + c.Queued + c.Wire }

func (c HeldCensus) String() string {
	return fmt.Sprintf("staged=%d rx-queued=%d voq=%d wire=%d", c.Staged, c.RxQueued, c.Queued, c.Wire)
}

// Census walks every holding site and returns the custody breakdown.
// Census().Total() accounts for every packet the fabric owns, so
// pool.Live() − sources' pending == Total() is the packet conservation
// law the checker sweeps.
func (n *Network) Census() HeldCensus {
	c := HeldCensus{Wire: n.arrMade - len(n.arrPool)}
	for _, h := range n.hcas {
		c.Staged += h.obuf.Len() + h.ctrl.Len()
		if h.dmaPkt != nil {
			c.Staged++
		}
		c.RxQueued += h.rxQ.Len()
		if h.sinkPkt != nil {
			c.RxQueued++
		}
	}
	for _, sw := range n.switches {
		for _, op := range sw.out {
			if op != nil {
				c.Queued += int(op.pending)
			}
		}
	}
	return c
}

// HeldPackets returns the total number of packets the fabric currently
// owns (see Census).
func (n *Network) HeldPackets() int { return n.Census().Total() }

// CheckState runs the fabric's state rules in the order the checker
// names them, calling report for each one that does not hold.
func (n *Network) CheckState(report func(rule string, err error)) {
	if err := n.CheckCreditBounds(); err != nil {
		report("credit-bounds", err)
	}
	if err := n.CheckVoQOccupancy(); err != nil {
		report("voq-occupancy", err)
	}
	if err := n.CheckLinkArmed(); err != nil {
		report("link-armed", err)
	}
}

// CheckCreditBounds verifies the flow-control accounting that holds at
// every event boundary, not just at quiescence: every transmitter's
// per-VL credit count within [0, downstream buffer capacity], every
// receiver's free space within [0, its capacity], and every host's
// staging byte counter — what gates its injection DMA — equal to the
// wire bytes actually staged and within the staging buffer. Credit
// updates whose landing instant has passed are folded in first, so the
// counters read are the ones the model would read. It returns the first
// violation found.
func (n *Network) CheckCreditBounds() error {
	n.fold()
	if err := n.eachLink(func(l *linkOut, _ bool) error {
		for v, cr := range l.credits() {
			if cr < 0 || cr > l.capBytes() {
				return fmt.Errorf("fabric: %s vl %d credits %d outside [0, %d]", l.name(), v, cr, l.capBytes())
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for _, h := range n.hcas {
		for v, free := range h.rxFree() {
			if free < 0 || free > n.cfg.HostIbufBytes {
				return fmt.Errorf("fabric: host %d rx vl %d free %d outside [0, %d]",
					h.lid, v, free, n.cfg.HostIbufBytes)
			}
		}
		staged := 0
		for p := h.obuf.Peek(); p != nil; p = p.Next {
			staged += p.WireBytes()
		}
		if staged != h.obufBytes || staged > n.cfg.HostObufBytes {
			return fmt.Errorf("fabric: host %d staging holds %d wire bytes of %d, counter says %d",
				h.lid, staged, n.cfg.HostObufBytes, h.obufBytes)
		}
	}
	for _, sw := range n.switches {
		for pi, ip := range sw.in {
			if ip == nil {
				continue
			}
			for v, free := range ip.free() {
				if free < 0 || free > n.cfg.SwitchIbufBytes {
					return fmt.Errorf("fabric: switch %d in-port %d vl %d free %d outside [0, %d]",
						sw.index, pi, v, free, n.cfg.SwitchIbufBytes)
				}
			}
		}
	}
	return nil
}

// CheckVoQOccupancy verifies everything a switch output port keeps
// beside its queues against the queues themselves: occupancy bit k is
// set exactly when voqs[k] holds packets, pending equals the packets
// queued, the queued bytes per VL — what congestion detection samples —
// are the wire bytes queued on that lane, and a VoQ holds only packets
// of its slot's lane, the one a grant returns the input-buffer credit
// on. A stale set bit would make the arbiter dereference an empty
// queue's head — past the ring's end, the next port's queue; a stale
// clear bit strands its packets forever.
func (n *Network) CheckVoQOccupancy() error {
	for _, sw := range n.switches {
		for pi, op := range sw.out {
			if op == nil {
				continue
			}
			queued := 0
			var lanes [16]int // wire bytes queued per VL; NumVLs ≤ 15 (Config.Validate)
			voqs, occ, qbytes := op.voqs(), op.occ(), op.qbytes()
			if tail := occ[len(occ)-1] >> (len(voqs) & 63); len(voqs)&63 != 0 && tail != 0 {
				return fmt.Errorf("fabric: switch %d port %d: occupancy bits %#x set beyond the ring of %d",
					sw.index, pi, tail, len(voqs))
			}
			for k := range voqs {
				l := voqs[k].Len()
				queued += l
				if set := occ[k>>6]>>(k&63)&1 != 0; set != (l > 0) {
					return fmt.Errorf("fabric: switch %d port %d voq %d: occupancy bit %v with %d packets queued",
						sw.index, pi, k, set, l)
				}
				vl := k & (1<<sw.vlShift - 1)
				for p := voqs[k].Peek(); p != nil; p = p.Next {
					if int(p.VL) != vl || vl >= len(qbytes) {
						return fmt.Errorf("fabric: switch %d port %d voq %d (vl %d) holds a packet on vl %d",
							sw.index, pi, k, vl, p.VL)
					}
					lanes[vl] += p.WireBytes()
				}
			}
			if queued != int(op.pending) {
				return fmt.Errorf("fabric: switch %d port %d: %d packets queued, pending says %d",
					sw.index, pi, queued, op.pending)
			}
			for v, qb := range qbytes {
				if lanes[v] != qb {
					return fmt.Errorf("fabric: switch %d port %d vl %d voqs hold %d wire bytes, counter says %d",
						sw.index, pi, v, lanes[v], qb)
				}
			}
		}
	}
	return nil
}

// CheckLinkArmed verifies the bookkeeping behind the events the fabric
// schedules only on demand (see linkOut); each violation would be a
// silent hang — a queued packet no event will ever grant. At every
// transmitter: a busy serializer whose done callback is not in the
// event list has nothing waiting behind it, and an armed callback
// belongs to a busy serializer; an idle, up transmitter with packets
// waiting is flagged stalled (or credit updates would be parked past
// it), a stalled one has packets waiting and no update parked; the
// credits held plus the ones parked never exceed the downstream buffer.
// Along the parked ring: lanes the fabric has, positive sizes, ascending
// keys, and per-link counts that match. Every reserved key — a busy
// serializer's, a parked update's — carries a sequence number the kernel
// has issued.
func (n *Network) CheckLinkArmed() error {
	n.fold()
	nextSeq := n.simr.ExportKernel().Seq
	if len(n.parkedPerLink) != len(n.links) {
		n.parkedPerLink = make([]int, len(n.links))
	}
	parked := n.parkedPerLink
	clear(parked)
	var last *parkedCredit
	for i := 0; i < n.parked.len; i++ {
		c := n.parked.at(i)
		if c.taker == nil {
			continue
		}
		l := c.taker.txLink()
		parked[l.index]++
		if c.link != l.index {
			return fmt.Errorf("fabric: %s parked credit filed under link %d", l.name(), c.link)
		}
		if int(c.vl) >= n.cfg.NumVLs || c.bytes <= 0 {
			return fmt.Errorf("fabric: %s parked credit of %d bytes on vl %d", l.name(), c.bytes, c.vl)
		}
		if c.seq >= nextSeq {
			return fmt.Errorf("fabric: %s parked credit seq %d at or beyond next seq %d", l.name(), c.seq, nextSeq)
		}
		if last != nil && (c.at < last.at || c.seq <= last.seq) {
			return fmt.Errorf("fabric: parked credit keys out of order: (%v, %d) after (%v, %d)", c.at, c.seq, last.at, last.seq)
		}
		last = c
	}
	return n.eachLink(func(l *linkOut, waiting bool) error {
		st := l.state()
		switch busy := l.isBusy(); {
		case busy && l.txSeq >= nextSeq:
			return fmt.Errorf("fabric: %s serializer-done seq %d at or beyond next seq %d", l.name(), l.txSeq, nextSeq)
		case busy && !l.armed && waiting:
			return fmt.Errorf("fabric: %s busy until %v with packets waiting and no serializer-done event", l.name(), l.busyUntil)
		case l.armed && !busy:
			return fmt.Errorf("fabric: %s has a serializer-done event armed while idle", l.name())
		case waiting && !busy && !l.down && !st.stalled:
			return fmt.Errorf("fabric: %s idle with packets waiting but not marked stalled: credit updates would not wake it", l.name())
		case st.stalled && (!waiting || busy):
			return fmt.Errorf("fabric: %s marked stalled with waiting=%v busy=%v", l.name(), waiting, busy)
		case st.stalled && st.nParked > 0:
			return fmt.Errorf("fabric: %s stalled with %d credit updates parked", l.name(), st.nParked)
		case int(st.nParked) != parked[l.index]:
			return fmt.Errorf("fabric: %s counts %d parked credit updates, the ring holds %d", l.name(), st.nParked, parked[l.index])
		}
		for v, cr := range l.credits() {
			if sum := cr + n.parkedBytes(l, v); sum > l.capBytes() {
				return fmt.Errorf("fabric: %s vl %d credits %d + parked exceed capacity %d", l.name(), v, sum, l.capBytes())
			}
		}
		return nil
	})
}

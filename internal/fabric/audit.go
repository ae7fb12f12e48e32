package fabric

import (
	"fmt"

	"repro/internal/ib"
)

// This file is the fabric side of the runtime invariant layer
// (internal/check): a custody census of every packet the fabric holds,
// and mid-run bounds on the credit accounting. Unlike CheckQuiescent,
// which only holds after a full drain, these invariants hold at every
// event boundary, so the checker can sweep them during a run.

// AuditCounters tracks packet custody that is otherwise implicit in the
// future-event list: packets serialized onto a link whose arrival event
// has not fired yet. The counter lives behind a nil pointer so the
// unaudited hot path pays exactly one branch per link transmission.
type AuditCounters struct {
	// WirePackets counts packets currently in flight on links (arrival
	// scheduled, not yet arrived).
	WirePackets int

	// DroppedPackets counts packets the fault layer discarded on the
	// wire (see Dropper). Dropped custody is intentional, so the pool
	// accounting law becomes Puts == ΣRxPackets + DroppedPackets; the
	// per-class columns below break the total down for audit reports
	// (a FECN-marked data packet counts under DroppedFECN only).
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

// EnableAudit switches on the wire-custody counter and returns it. It
// must be called before Start — packets already in flight when auditing
// begins would be invisible to the census. Idempotent.
func (n *Network) EnableAudit() *AuditCounters {
	if n.aud == nil {
		n.aud = &AuditCounters{}
	}
	return n.aud
}

// Audit returns the audit counters, or nil when auditing is off.
func (n *Network) Audit() *AuditCounters { return n.aud }

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
	// Wire counts packets in flight on links. It is exact only when
	// auditing is enabled (EnableAudit before Start), zero otherwise.
	Wire int
}

// Total sums the census.
func (c HeldCensus) Total() int { return c.Staged + c.RxQueued + c.Queued + c.Wire }

func (c HeldCensus) String() string {
	return fmt.Sprintf("staged=%d rx-queued=%d voq=%d wire=%d", c.Staged, c.RxQueued, c.Queued, c.Wire)
}

// Census walks every holding site and returns the custody breakdown.
// With auditing enabled, Census().Total() accounts for every packet the
// fabric owns, so pool.Live() − sources' pending == Total() is the
// packet conservation law the checker sweeps.
func (n *Network) Census() HeldCensus {
	var c HeldCensus
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
				c.Queued += op.pending
			}
		}
	}
	if n.aud != nil {
		c.Wire = n.aud.WirePackets
	}
	return c
}

// HeldPackets returns the total number of packets the fabric currently
// owns (see Census).
func (n *Network) HeldPackets() int { return n.Census().Total() }

// CheckCreditBounds verifies the credit-accounting bounds that hold at
// every event boundary, not just at quiescence: every transmitter's
// per-VL credit count within [0, downstream buffer capacity], every
// receiver's free space within [0, its capacity], and no negative
// queue accounting anywhere. Credit updates whose landing instant has
// passed are folded in first, so the counters read are the ones the
// model would read. It returns the first violation found.
func (n *Network) CheckCreditBounds() error {
	n.fold()
	for _, h := range n.hcas {
		for v, cr := range h.out.credits {
			// Hosts attach to leaf switches, so the downstream buffer
			// is always a switch input buffer.
			if cr < 0 || cr > n.cfg.SwitchIbufBytes {
				return fmt.Errorf("fabric: host %d tx vl %d credits %d outside [0, %d]",
					h.lid, v, cr, n.cfg.SwitchIbufBytes)
			}
		}
		for v, free := range h.rxFree {
			if free < 0 || free > n.cfg.HostIbufBytes {
				return fmt.Errorf("fabric: host %d rx vl %d free %d outside [0, %d]",
					h.lid, v, free, n.cfg.HostIbufBytes)
			}
		}
		if h.obufBytes < 0 || h.obufBytes > n.cfg.HostObufBytes {
			return fmt.Errorf("fabric: host %d staging %d bytes outside [0, %d]",
				h.lid, h.obufBytes, n.cfg.HostObufBytes)
		}
	}
	for _, sw := range n.switches {
		for pi, op := range sw.out {
			if op == nil {
				continue
			}
			dcap := op.capBytes()
			for v, cr := range op.credits {
				if cr < 0 || cr > dcap {
					return fmt.Errorf("fabric: switch %d port %d vl %d credits %d outside [0, %d]",
						sw.index, pi, v, cr, dcap)
				}
			}
			if op.pending < 0 {
				return fmt.Errorf("fabric: switch %d port %d pending %d packets", sw.index, pi, op.pending)
			}
			for v, qb := range op.qbytes {
				if qb < 0 {
					return fmt.Errorf("fabric: switch %d port %d vl %d queued %d bytes", sw.index, pi, v, qb)
				}
			}
		}
		for pi, ip := range sw.in {
			if ip == nil {
				continue
			}
			for v, free := range ip.free {
				if free < 0 || free > n.cfg.SwitchIbufBytes {
					return fmt.Errorf("fabric: switch %d in-port %d vl %d free %d outside [0, %d]",
						sw.index, pi, v, free, n.cfg.SwitchIbufBytes)
				}
			}
		}
	}
	return nil
}

// CheckVoQOccupancy verifies the arbiter's summary state against the
// queues it summarizes, at every switch output port: occupancy bit k is
// set exactly when voqs[k] holds packets, and pending equals the
// packets queued. A stale set bit would make the arbiter dereference an
// empty queue's head; a stale clear bit strands its packets forever.
func (n *Network) CheckVoQOccupancy() error {
	for _, sw := range n.switches {
		for pi, op := range sw.out {
			if op == nil {
				continue
			}
			queued := 0
			for k := range op.voqs {
				l := op.voqs[k].Len()
				queued += l
				if set := op.occ[k>>6]>>(k&63)&1 != 0; set != (l > 0) {
					return fmt.Errorf("fabric: switch %d port %d voq %d: occupancy bit %v with %d packets queued",
						sw.index, pi, k, set, l)
				}
			}
			if queued != op.pending {
				return fmt.Errorf("fabric: switch %d port %d: %d packets queued, pending says %d",
					sw.index, pi, queued, op.pending)
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
// keys, and per-link counts that match.
func (n *Network) CheckLinkArmed() error {
	n.fold()
	parked := make(map[*linkOut]int)
	var last *parkedCredit
	for i := 0; i < n.parked.len; i++ {
		c := n.parked.at(i)
		if c.taker == nil {
			continue
		}
		l := c.taker.txLink()
		parked[l]++
		if int(c.vl) >= len(l.credits) || c.bytes <= 0 {
			return fmt.Errorf("fabric: %s parked credit of %d bytes on vl %d", l.name(), c.bytes, c.vl)
		}
		if last != nil && (c.at < last.at || c.seq <= last.seq) {
			return fmt.Errorf("fabric: parked credit keys out of order: (%v, %d) after (%v, %d)", c.at, c.seq, last.at, last.seq)
		}
		last = c
	}
	return n.eachLink(func(l *linkOut, waiting bool) error {
		switch busy := l.isBusy(); {
		case busy && !l.armed && waiting:
			return fmt.Errorf("fabric: %s busy until %v with packets waiting and no serializer-done event", l.name(), l.busyUntil)
		case l.armed && !busy:
			return fmt.Errorf("fabric: %s has a serializer-done event armed while idle", l.name())
		case waiting && !busy && !l.down && !l.stalled:
			return fmt.Errorf("fabric: %s idle with packets waiting but not marked stalled: credit updates would not wake it", l.name())
		case l.stalled && (!waiting || busy):
			return fmt.Errorf("fabric: %s marked stalled with waiting=%v busy=%v", l.name(), waiting, busy)
		case l.stalled && l.nParked > 0:
			return fmt.Errorf("fabric: %s stalled with %d credit updates parked", l.name(), l.nParked)
		case int(l.nParked) != parked[l]:
			return fmt.Errorf("fabric: %s counts %d parked credit updates, the ring holds %d", l.name(), l.nParked, parked[l])
		}
		for v, cr := range l.credits {
			if sum := cr + n.parkedBytes(l, v); sum > l.capBytes() {
				return fmt.Errorf("fabric: %s vl %d credits %d + parked exceed capacity %d", l.name(), v, sum, l.capBytes())
			}
		}
		return nil
	})
}

package fabric

import (
	"repro/internal/ib"
	"repro/internal/sim"
)

// The fabric schedules a handful of events per packet per hop; this file
// keeps those events allocation-free. Repeating per-port callbacks
// (serializer done, DMA done, sink done, wake) are one-pointer structs,
// which convert to an Action without allocating wherever one is needed;
// per-packet arrivals and credit updates use small pooled action structs
// recycled through the Network.

// arrivalAct delivers a packet to a link's receiving endpoint — or, when
// the fault layer marked it lost at transmit time, discards it at the
// same instant (src identifies the transmitter for the drop record).
type arrivalAct struct {
	net  *Network
	dst  packetTaker
	p    *ib.Packet
	src  *linkOut
	drop bool
}

// Act implements sim.Action.
func (a *arrivalAct) Act() {
	net, dst, p, src, drop := a.net, a.dst, a.p, a.src, a.drop
	a.dst, a.p, a.src, a.drop = nil, nil, nil, false
	net.arrPool = append(net.arrPool, a)
	if drop {
		net.dropped(src, dst, p)
		return
	}
	dst.arrive(p)
}

func (n *Network) popArrival() *arrivalAct {
	if k := len(n.arrPool); k > 0 {
		a := n.arrPool[k-1]
		n.arrPool[k-1] = nil
		n.arrPool = n.arrPool[:k-1]
		return a
	}
	n.arrMade++
	return &arrivalAct{net: n}
}

// scheduleArrival enqueues a packet arrival after d.
func (n *Network) scheduleArrival(d sim.Duration, dst packetTaker, p *ib.Packet) {
	a := n.popArrival()
	a.dst, a.p = dst, p
	n.simr.ScheduleAction(d, a)
}

// scheduleDrop enqueues a faulted packet's discard at what would have
// been its arrival instant, so the wire-custody window is identical to a
// delivered packet's.
func (n *Network) scheduleDrop(d sim.Duration, src *linkOut, p *ib.Packet) {
	a := n.popArrival()
	a.dst, a.p, a.src, a.drop = src.dst, p, src, true
	n.simr.ScheduleAction(d, a)
}

// creditAct returns flow-control credits to a link's transmitting
// endpoint.
type creditAct struct {
	net   *Network
	taker creditTaker
	vl    ib.VL
	bytes int
}

// Act implements sim.Action.
func (c *creditAct) Act() {
	net, taker, vl, bytes := c.net, c.taker, c.vl, c.bytes
	c.taker = nil
	net.crdPool = append(net.crdPool, c)
	taker.addCredit(vl, bytes)
}

// sendCredit returns flow-control credits to taker, the transmitter of
// link, to count from the link propagation delay on, modeling the
// flow-control packet carrying them. An update the transmitter could not
// act on when it lands is parked instead of scheduled (see
// Network.park); the rest travel as events.
func (n *Network) sendCredit(taker creditTaker, link int32, vl ib.VL, bytes int) {
	d := n.cfg.PropDelay
	delayed := n.dropper != nil && n.dropper.DropCredit(vl, bytes)
	if delayed {
		// The flow-control packet carrying this update is lost; the
		// credits reach the transmitter with the next refresh instead
		// (see CreditRefreshDelay).
		n.creditDropped(taker, vl, bytes)
		d += CreditRefreshDelay
	}
	if n.park(taker, link, n.simr.Now().Add(d), delayed, vl, bytes) {
		return
	}
	n.simr.ScheduleAction(d, n.newCreditAct(taker, vl, bytes))
}

// newCreditAct returns a pooled credit-update action.
func (n *Network) newCreditAct(taker creditTaker, vl ib.VL, bytes int) *creditAct {
	var c *creditAct
	if k := len(n.crdPool); k > 0 {
		c = n.crdPool[k-1]
		n.crdPool[k-1] = nil
		n.crdPool = n.crdPool[:k-1]
	} else {
		c = &creditAct{net: n}
	}
	c.taker, c.vl, c.bytes = taker, vl, bytes
	return c
}

// swTxAct fires a switch output port's serializer-done callback.
type swTxAct struct{ op *swOutPort }

// Act implements sim.Action.
func (a swTxAct) Act() { a.op.txDone() }

// hcaTxAct fires an HCA's serializer-done callback.
type hcaTxAct struct{ h *HCA }

// Act implements sim.Action.
func (a hcaTxAct) Act() { a.h.txDone() }

// hcaWakeAct fires an HCA's armed send re-evaluation.
type hcaWakeAct struct{ h *HCA }

// Act implements sim.Action.
func (a hcaWakeAct) Act() { a.h.kickSend() }

// hcaDmaAct fires an HCA's injection-DMA completion for h.dmaPkt.
type hcaDmaAct struct{ h *HCA }

// Act implements sim.Action.
func (a hcaDmaAct) Act() {
	p := a.h.dmaPkt
	a.h.dmaPkt = nil
	a.h.dmaDone(p)
}

// hcaSinkAct fires an HCA's sink-service completion for h.sinkPkt.
type hcaSinkAct struct{ h *HCA }

// Act implements sim.Action.
func (a hcaSinkAct) Act() {
	p := a.h.sinkPkt
	a.h.sinkPkt = nil
	a.h.delivered(p)
}

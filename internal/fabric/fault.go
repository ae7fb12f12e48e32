package fabric

import (
	"fmt"

	"repro/internal/ib"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file is the fabric side of the fault-injection layer
// (internal/fault): the execution of link outages, serialization-rate
// degradation and wire loss at link/transmitter granularity. The fabric
// only executes faults — what to fail and when is decided by a Dropper
// implementation and by whoever calls SetLinkDown/SetLinkSlow (the fault
// injector), so an unfaulted run pays one nil check per transmission and
// nothing else.

// CreditRefreshDelay is how long a dropped flow-control credit update is
// deferred. IB link-level flow control carries absolute credit state in
// periodic flow-control packets, so a single lost update is corrected by
// the next one rather than leaking credits forever; the model folds that
// recovery into one deferred delivery.
const CreditRefreshDelay = 10 * sim.Microsecond

// Dropper decides which wire transfers an injected fault discards. The
// fabric consults it at transmit time for packets — the loss then
// executes at what would have been the arrival instant, so wire custody
// and credit accounting stay exact — and at credit-return time for
// flow-control updates. Install with SetDropper before Start.
// Implementations must be deterministic functions of their own state;
// the fault layer gives each drop class its own seeded RNG stream.
type Dropper interface {
	// DropPacket reports whether the packet leaving the transmitter at
	// (node, port) is lost. atSwitch selects the switch/host namespace
	// for node (matching the event bus); hostFacing marks the fabric's
	// final hop into an HCA.
	DropPacket(atSwitch, hostFacing bool, node, port int, p *ib.Packet) bool
	// DropCredit reports whether a credit update of bytes on vl is
	// lost. A lost update is deferred by CreditRefreshDelay, not lost
	// forever (see the constant), so quiescence still balances.
	DropCredit(vl ib.VL, bytes int) bool
}

// SetDropper installs the fault layer's wire-loss policy; it must be
// called before Start. A nil dropper (the default) loses nothing.
func (n *Network) SetDropper(d Dropper) { n.dropper = d }

// SetLinkDown forces the transmitter at (node, port) down (a link flap
// or switch-port stall) or back up. atSwitch selects the switch/host
// namespace for node; hosts have a single transmitter, so their port is
// ignored. Coming back up re-arms the arbiter, so traffic resumes
// immediately if anything is queued.
func (n *Network) SetLinkDown(atSwitch bool, node, port int, down bool) {
	now := n.simr.Now()
	if atSwitch {
		op := n.switches[node].out[port]
		if op == nil {
			panic(fmt.Sprintf("fabric: SetLinkDown on unconnected port %d of switch %d", port, node))
		}
		op.down = down
		n.publishLink(now, down, true, node, port)
		if !down {
			op.tryTx()
		}
		return
	}
	h := n.hcas[node]
	h.out.down = down
	n.publishLink(now, down, false, node, 0)
	if !down {
		h.tryTxOut()
	}
}

func (n *Network) publishLink(now sim.Time, down, atSwitch bool, node, port int) {
	if down {
		n.bus.LinkDown(now, atSwitch, node, port)
	} else {
		n.bus.LinkUp(now, atSwitch, node, port)
	}
}

// SetLinkSlow degrades the transmitter at (node, port): factor > 1
// multiplies its serialization time (factor 2 halves the effective link
// rate); factor <= 1 restores the nominal rate. Packets already being
// serialized are unaffected.
func (n *Network) SetLinkSlow(atSwitch bool, node, port int, factor float64) {
	if factor <= 1 {
		factor = 0
	}
	if atSwitch {
		op := n.switches[node].out[port]
		if op == nil {
			panic(fmt.Sprintf("fabric: SetLinkSlow on unconnected port %d of switch %d", port, node))
		}
		op.slow = factor
		return
	}
	n.hcas[node].out.slow = factor
}

// dropped executes a wire loss decided at transmit time: the receiver
// returns the credit the transmitter spent (as if it had consumed and
// instantly freed the packet), the audit ledger and event bus record the
// discard, and the packet goes back to the pool — the one release site
// besides the host sink.
func (n *Network) dropped(src *linkOut, dst packetTaker, p *ib.Packet) {
	dst.dropArrive(p)
	n.aud.countDrop(p)
	n.bus.PacketDropped(n.simr.Now(), src.atSwitch, src.node, src.port, p, p.VL, p.WireBytes())
	n.pool.Put(p)
}

// creditDropped records a lost credit update before its deferred
// redelivery; taker is the transmitter that keeps waiting for it.
func (n *Network) creditDropped(taker creditTaker, vl ib.VL, bytes int) {
	n.aud.DroppedCredits++
	if !n.bus.Wants(obs.KindPacketDropped) {
		return
	}
	switch t := taker.(type) {
	case *swOutPort:
		n.bus.PacketDropped(n.simr.Now(), true, t.sw.index, t.port, nil, vl, bytes)
	case *HCA:
		n.bus.PacketDropped(n.simr.Now(), false, int(t.lid), 0, nil, vl, bytes)
	}
}

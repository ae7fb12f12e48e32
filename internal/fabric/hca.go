package fabric

import (
	"fmt"

	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/topo"
)

// HCACounters accumulate per-host traffic totals. The experiment harness
// snapshots them at the warmup boundary and at the end of the
// measurement window to compute rates.
type HCACounters struct {
	// TxPackets/TxBytes count everything injected (wire bytes).
	TxPackets, TxBytes uint64
	// TxDataPayload counts application payload bytes injected.
	TxDataPayload uint64
	// TxHotspotPayload counts the subset of TxDataPayload whose
	// destination was the generator's hotspot target.
	TxHotspotPayload uint64
	// TxCNP counts congestion notification packets injected.
	TxCNP uint64
	// TxAck counts acknowledgement packets injected.
	TxAck uint64
	// RxPackets/RxBytes count everything the sink consumed.
	RxPackets, RxBytes uint64
	// RxDataPayload counts application payload bytes delivered.
	RxDataPayload uint64
	// RxCNP counts congestion notification packets delivered.
	RxCNP uint64
	// RxAck counts acknowledgement packets delivered.
	RxAck uint64
	// RxFECN counts delivered data packets carrying a FECN mark.
	RxFECN uint64
	// Latency histograms data-packet network latency (injection-DMA
	// completion to sink delivery) at this receiver.
	Latency LatencyHist
}

// HCA models one end node: the send side (generator pull, injection DMA
// at the host rate, small staging buffer, link serializer under credit
// flow control) and the receive side (credit-granting input buffer and a
// rate-limited sink). It corresponds to the gen/sink/obuf/ibuf composition
// of the paper's HCA module.
type HCA struct {
	net *Network
	lid ib.LID

	// Send side.
	out       linkOut
	obuf      ib.PacketQueue
	obufBytes int
	dmaBusy   bool
	ctrl      ib.PacketQueue
	source    Source
	wake      *sim.Event
	wakeSeq   uint64

	// Receive side; the per-VL free bytes are in the network's free
	// slab from rxBase.
	rxBase   int32
	upLink   int32 // up's link index: all a credit return reads of it
	rxQ      ib.PacketQueue
	sinkBusy bool
	up       creditTaker

	// The packets inside the DMA and the sink (one of each at a time).
	dmaPkt, sinkPkt *ib.Packet

	ctr HCACounters
}

// newHCA builds a host whose link and receive buffer take their slab
// stretches at cur.
func newHCA(n *Network, node *topo.Node, cur *slabCursor) *HCA {
	h := &HCA{net: n, lid: node.LID, rxBase: int32(cur.free)}
	h.out.net = n
	h.out.index = int32(cur.links)
	cur.links++
	cur.free += n.cfg.NumVLs
	fill(h.rxFree(), n.cfg.HostIbufBytes)
	h.out.txAct = hcaTxAct{h}
	return h
}

func (h *HCA) rxFree() []int { return h.net.free[h.rxBase:][:h.net.cfg.NumVLs] }

// LID returns the host's local identifier.
func (h *HCA) LID() ib.LID { return h.lid }

// Counters returns a snapshot of the host's traffic counters.
func (h *HCA) Counters() HCACounters { return h.ctr }

// SetSource attaches the traffic generator. It may be nil for pure
// receivers.
func (h *HCA) SetSource(s Source) { h.source = s }

// SendControl enqueues a control packet (CNP) ahead of all data traffic.
// The congestion-control manager calls it when a FECN-marked packet is
// delivered.
func (h *HCA) SendControl(p *ib.Packet) {
	p.Src = h.lid
	h.ctrl.Push(p)
	h.kickSend()
}

// kickSend starts the injection DMA when it is idle, the staging buffer
// has room, and either a control packet or an eligible data packet is
// available. When the source has nothing eligible, a wake-up is armed at
// the earliest time it reported something could change.
func (h *HCA) kickSend() {
	if h.dmaBusy {
		return
	}
	if h.obufBytes+h.net.cfg.maxWire() > h.net.cfg.HostObufBytes {
		return // staging full; dmaDone/txDone will kick again
	}
	var p *ib.Packet
	if !h.ctrl.Empty() {
		p = h.ctrl.Pop()
	} else if h.source != nil {
		var wakeAt sim.Time
		p, wakeAt = h.source.Pull(h.net.simr.Now())
		if p == nil {
			h.armWake(wakeAt)
			return
		}
		if h.net.cfg.Check && p.PayloadBytes > ib.MTU {
			panic("fabric: source produced packet above MTU")
		}
	} else {
		return
	}
	h.dmaBusy = true
	h.dmaPkt = p
	d := h.net.cfg.InjectionRate.TxTime(p.WireBytes())
	h.net.simr.ScheduleAction(d, hcaDmaAct{h})
}

func (h *HCA) dmaDone(p *ib.Packet) {
	h.dmaBusy = false
	p.InjectTime = h.net.simr.Now()
	h.ctr.TxPackets++
	h.ctr.TxBytes += uint64(p.WireBytes())
	switch p.Type {
	case ib.DataPacket:
		h.ctr.TxDataPayload += uint64(p.PayloadBytes)
		if p.Hotspot {
			h.ctr.TxHotspotPayload += uint64(p.PayloadBytes)
		}
	case ib.CNPPacket:
		h.ctr.TxCNP++
	case ib.AckPacket:
		h.ctr.TxAck++
	}
	h.obuf.Push(p)
	h.obufBytes += p.WireBytes()
	h.tryTxOut()
	h.kickSend()
}

// tryTxOut moves staged packets onto the wire under credit flow control.
// While the serializer is busy a staged packet waits for its done
// callback, which from here on must exist.
func (h *HCA) tryTxOut() {
	p := h.obuf.Peek()
	if h.out.busyWith(p != nil) || h.out.down || p == nil {
		return
	}
	h.net.fold()
	if credits := *h.out.credit(p.VL); credits < p.WireBytes() {
		h.net.bus.CreditStalled(h.net.simr.Now(), false, int(h.lid), 0, p.VL, credits, p.WireBytes())
		h.net.stall(&h.out)
		return
	}
	h.obuf.Pop()
	h.obufBytes -= p.WireBytes()
	h.net.bus.PacketSent(h.net.simr.Now(), false, int(h.lid), 0, p)
	h.out.transmit(p, !h.obuf.Empty())
	h.kickSend() // staging space freed
}

func (h *HCA) txDone() {
	h.out.txDone()
	h.tryTxOut()
}

// addCredit is a flow-control update from the attached switch that
// travelled as an event (see Network.park for the ones that do not).
func (h *HCA) addCredit(vl ib.VL, bytes int) {
	h.out.addCredits(vl, bytes)
	h.tryTxOut()
}

func (h *HCA) txLink() *linkOut { return &h.out }

// armWake schedules a send re-evaluation at t unless one at least as
// early is already pending. Fired events are recycled by the kernel, so
// the held handle is validated by its sequence number before use.
func (h *HCA) armWake(t sim.Time) {
	if t == sim.MaxTime {
		return
	}
	live := h.wake != nil && h.wake.Seq() == h.wakeSeq
	if live && !h.wake.Cancelled() && h.wake.Time() > h.net.simr.Now() && h.wake.Time() <= t {
		return
	}
	if live {
		h.net.simr.Cancel(h.wake)
	}
	h.wake = h.net.simr.ScheduleActionAt(t, hcaWakeAct{h})
	h.wakeSeq = h.wake.Seq()
}

// dropArrive implements the fault layer's discard at the host receiver:
// the rx buffer was never occupied, so the leaf switch gets its credit
// straight back.
func (h *HCA) dropArrive(p *ib.Packet) {
	h.net.sendCredit(h.up, h.upLink, p.VL, p.WireBytes())
}

// arrive admits a packet into the receive buffer and starts the sink if
// idle. Space is guaranteed by the credit discipline.
func (h *HCA) arrive(p *ib.Packet) {
	free := &h.net.free[int(h.rxBase)+int(p.VL)]
	*free -= p.WireBytes()
	if h.net.cfg.Check && *free < 0 {
		panic(fmt.Sprintf("fabric: rx buffer overflow at host %d", h.lid))
	}
	h.rxQ.Push(p)
	if !h.sinkBusy {
		h.consumeNext()
	}
}

// consumeNext services the sink queue at the calibrated end-node receive
// rate; completion frees buffer space (credit back to the leaf switch)
// and hands the packet to the delivery hook.
func (h *HCA) consumeNext() {
	p := h.rxQ.Pop()
	if p == nil {
		h.sinkBusy = false
		return
	}
	h.sinkBusy = true
	h.sinkPkt = p
	d := h.net.cfg.SinkRate.TxTime(p.WireBytes())
	h.net.simr.ScheduleAction(d, hcaSinkAct{h})
}

func (h *HCA) delivered(p *ib.Packet) {
	h.net.free[int(h.rxBase)+int(p.VL)] += p.WireBytes()
	h.net.sendCredit(h.up, h.upLink, p.VL, p.WireBytes())
	h.ctr.RxPackets++
	h.ctr.RxBytes += uint64(p.WireBytes())
	switch p.Type {
	case ib.DataPacket:
		h.ctr.RxDataPayload += uint64(p.PayloadBytes)
		h.ctr.Latency.Add(h.net.simr.Now().Sub(p.InjectTime))
		if p.FECN {
			h.ctr.RxFECN++
		}
	case ib.CNPPacket:
		h.ctr.RxCNP++
	case ib.AckPacket:
		h.ctr.RxAck++
	}
	h.net.bus.PacketDelivered(h.net.simr.Now(), h.lid, p)
	h.net.bus.MsgCompleted(h.net.simr.Now(), h.lid, p)
	if h.net.hooks.Deliver != nil {
		h.net.hooks.Deliver(h.lid, p)
	}
	// The sink is the end of every packet's life: once the delivery
	// consumers above have returned, nothing may hold the pointer and
	// the packet goes back to the freelist for the next injection.
	h.net.pool.Put(p)
	h.consumeNext()
}

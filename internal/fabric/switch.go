package fabric

import (
	"fmt"
	"math/bits"

	"repro/internal/ib"
	"repro/internal/topo"
)

// SwitchNode models one crossbar: per-port input buffers with virtual
// output queuing over (output port, VL), and a round-robin arbiter per
// output port granting packets when the serializer is idle and the
// downstream VL has credits — the ibuf/obuf/vlarb composition of the
// paper's switch model.
type SwitchNode struct {
	net   *Network
	id    topo.NodeID
	index int // dense switch index, used by hooks and metrics
	in    []*swInPort
	out   []*swOutPort
}

// swInPort is the receiving side of a switch port: it accounts the
// per-VL buffer space the upstream sender sees as credits.
type swInPort struct {
	sw   *SwitchNode
	port int
	free []int // remaining buffer bytes per VL
	up   creditTaker
}

// swOutPort is the transmitting side of a switch port: VoQs per
// (input port, VL), per-VL queued-byte accounting for congestion
// detection, and the round-robin arbitration state.
//
// The VoQ array is a power-of-two ring indexed voqs[inPort<<vlShift|vl]:
// ports and VLs are padded up to powers of two so the arbiter pointer
// wraps with a mask instead of a compare-and-subtract, and recovering
// (inPort, vl) from a ring index is a shift/mask instead of a division.
// Padding slots hold permanently empty queues. Cyclic lexicographic
// order over the real (inPort, vl) pairs — and therefore the grant
// sequence — is identical to the unpadded layout; the golden trajectory
// tests pin this.
//
// occ is the ring's occupancy bitmap: bit k is set exactly while
// voqs[k] is non-empty. The arbiter walks set bits from rr in cyclic
// index order, so a grant costs time in the queues that hold packets
// (typically one or two), not in the ring's size.
type swOutPort struct {
	linkOut
	sw      *SwitchNode
	port    int
	voqs    []ib.PacketQueue // pow2 ring: [inPort<<vlShift | vl]
	occ     []uint64         // bit k ⇔ voqs[k].Len() > 0
	qbytes  []int            // queued bytes per VL across all inputs
	rr      int              // arbitration pointer into voqs
	vlShift uint             // log2 of the padded per-input VL stride
	voqMask int              // len(voqs) - 1
	pending int              // total queued packets
}

// pow2ceil rounds x (≥ 1) up to the next power of two.
func pow2ceil(x int) int { return 1 << bits.Len(uint(x-1)) }

func newSwitchNode(n *Network, node *topo.Node, index int) *SwitchNode {
	sw := &SwitchNode{net: n, id: node.ID, index: index}
	nports := len(node.Ports)
	sw.in = make([]*swInPort, nports)
	sw.out = make([]*swOutPort, nports)
	for p := 0; p < nports; p++ {
		if !node.Ports[p].Connected() {
			continue
		}
		ip := &swInPort{sw: sw, port: p, free: make([]int, n.cfg.NumVLs)}
		for v := range ip.free {
			ip.free[v] = n.cfg.SwitchIbufBytes
		}
		sw.in[p] = ip
		op := &swOutPort{sw: sw, port: p}
		op.net = n
		op.vlShift = uint(bits.Len(uint(n.cfg.NumVLs - 1)))
		op.voqs = make([]ib.PacketQueue, pow2ceil(nports)<<op.vlShift)
		op.voqMask = len(op.voqs) - 1
		op.occ = make([]uint64, (len(op.voqs)+63)/64)
		op.qbytes = make([]int, n.cfg.NumVLs)
		op.txAct = swTxAct{op}
		sw.out[p] = op
	}
	return sw
}

// arrive admits a packet into the input buffer, routes it, and enqueues
// it on the VoQ of its output port. Buffer space is guaranteed by the
// upstream credit discipline; running out here is a model bug.
func (ip *swInPort) arrive(p *ib.Packet) {
	n := ip.sw.net
	wire := p.WireBytes()
	ip.free[p.VL] -= wire
	if n.cfg.Check && ip.free[p.VL] < 0 {
		panic(fmt.Sprintf("fabric: ibuf overflow at switch %d port %d vl %d", ip.sw.index, ip.port, p.VL))
	}
	outPort := n.routing.OutPort(ip.sw.id, p.Dst)
	op := ip.sw.out[outPort]
	if n.cfg.Check && op == nil {
		panic(fmt.Sprintf("fabric: route to %d via unconnected port %d of switch %d", p.Dst, outPort, ip.sw.index))
	}
	op.enqueue(ip.port, p)
}

// dropArrive implements the fault layer's discard at this receiver: the
// buffer slot was never occupied, so the transmitter's credit goes
// straight back upstream.
func (ip *swInPort) dropArrive(p *ib.Packet) {
	ip.sw.net.sendCredit(ip.up, p.VL, p.WireBytes())
}

func (op *swOutPort) enqueue(inPort int, p *ib.Packet) {
	n := op.net
	// Arrival-side congestion sampling: the hook sees the queue the
	// packet joins, before it is added.
	if n.hooks.SwitchEnqueue != nil && p.Type == ib.DataPacket {
		n.fold()
		st := PortVLState{
			QueuedBytes:   op.qbytes[p.VL],
			CreditBytes:   op.credits[p.VL],
			CapacityBytes: n.cfg.SwitchIbufBytes,
			HostPort:      op.hostFacing,
		}
		n.hooks.SwitchEnqueue(op.sw.index, op.port, p, st)
	}
	k := inPort<<op.vlShift | int(p.VL)
	op.voqs[k].Push(p)
	op.occ[k>>6] |= 1 << (k & 63)
	op.qbytes[p.VL] += p.WireBytes()
	op.pending++
	n.bus.QueueSampled(n.simr.Now(), op.sw.index, op.port, op.hostFacing, p.VL, op.qbytes[p.VL])
	op.tryTx()
}

// tryTx runs the output arbiter: visiting the occupied VoQs in cyclic
// ring order from the round-robin pointer, grant the first whose head
// packet has downstream credits. While the serializer is busy the
// queued packets wait for its done callback, which from here on must
// exist.
func (op *swOutPort) tryTx() {
	if op.busyWith(op.pending > 0) || op.down || op.pending == 0 {
		return
	}
	op.net.fold()
	// The cyclic walk is nw+1 word visits: the start word's bits at or
	// above rr first, then every other word in ring order, and finally
	// the start word's bits below rr.
	nw := len(op.occ)
	start := op.rr >> 6
	below := uint64(1)<<(op.rr&63) - 1
	for i := 0; i <= nw; i++ {
		w := start + i
		if w >= nw {
			w -= nw
		}
		word := op.occ[w]
		if i == 0 {
			word &^= below
		} else if i == nw {
			word &= below
		}
		for word != 0 {
			k := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if op.grant(k) {
				return
			}
		}
	}
	op.net.stall(&op.linkOut)
}

// grant transmits the head of occupied VoQ k if its outgoing VL has
// credits, reporting whether it did. The grant frees input-buffer space
// (returning a credit upstream), gives the congestion-control hook a
// chance to FECN-mark the departing packet, and occupies the
// serializer; a refusal publishes the credit stall.
func (op *swOutPort) grant(k int) bool {
	n := op.net
	q := &op.voqs[k]
	head := q.Peek()
	// The packet may continue on a different VL (dateline switching);
	// the grant needs credits on the outgoing VL.
	vlNext := head.VL
	if n.hooks.SelectVL != nil {
		vlNext = n.hooks.SelectVL(op.sw.index, k>>op.vlShift, op.port, head)
	}
	wire := head.WireBytes()
	if !op.canSend(vlNext, wire) {
		n.bus.CreditStalled(n.simr.Now(), true, op.sw.index, op.port, vlNext, op.credits[vlNext], wire)
		return false
	}
	op.rr = (k + 1) & op.voqMask
	q.Pop()
	if q.Len() == 0 {
		op.occ[k>>6] &^= 1 << (k & 63)
	}
	op.pending--
	vl := int(head.VL)

	op.qbytes[vl] -= wire
	// Congestion-control hook sees the queue left behind the departing
	// packet and the credit state after this grant.
	if n.hooks.SwitchDeparture != nil && head.Type == ib.DataPacket {
		st := PortVLState{
			QueuedBytes:   op.qbytes[vl],
			CreditBytes:   op.credits[vl] - wire,
			CapacityBytes: n.cfg.SwitchIbufBytes,
			HostPort:      op.hostFacing,
		}
		n.hooks.SwitchDeparture(op.sw.index, op.port, head, st)
	}

	// Free the input buffer slot and return the credit upstream on the
	// VL the packet occupied locally, then move it to its outgoing VL.
	ip := op.sw.in[k>>op.vlShift]
	ip.free[head.VL] += wire
	n.sendCredit(ip.up, head.VL, wire)
	head.VL = vlNext

	n.bus.QueueSampled(n.simr.Now(), op.sw.index, op.port, op.hostFacing, ib.VL(vl), op.qbytes[vl])
	n.bus.PacketSent(n.simr.Now(), true, op.sw.index, op.port, head)
	op.transmit(head, op.pending > 0)
	return true
}

func (op *swOutPort) txDone() {
	op.linkOut.txDone()
	op.tryTx()
}

// addCredit is a flow-control update from downstream that travelled as
// an event (see Network.park for the ones that do not); fresh credits
// may unblock the arbiter.
func (op *swOutPort) addCredit(vl ib.VL, bytes int) {
	op.addCredits(vl, bytes)
	op.tryTx()
}

func (op *swOutPort) txLink() *linkOut { return &op.linkOut }

// QueuedBytes reports the bytes queued for output port out on vl; tests
// and the CC manager's observability use it.
func (s *SwitchNode) QueuedBytes(out int, vl ib.VL) int {
	if s.out[out] == nil {
		return 0
	}
	return s.out[out].qbytes[vl]
}

// Index returns the dense switch index.
func (s *SwitchNode) Index() int { return s.index }

// NodeID returns the topology node of this switch.
func (s *SwitchNode) NodeID() topo.NodeID { return s.id }

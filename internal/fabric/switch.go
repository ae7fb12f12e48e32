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

	// Geometry of the VoQ ring every output port of this switch has
	// (see swOutPort).
	vlShift  uint  // log2 of the padded per-input VL stride
	voqMask  int32 // ring length - 1
	occWords int32 // occupancy words per ring
}

// swInPort is the receiving side of a switch port: it accounts the
// per-VL buffer space the upstream sender sees as credits, in the
// network's free slab from freeBase.
type swInPort struct {
	sw       *SwitchNode
	up       creditTaker
	upLink   int32 // up's link index: all a credit return reads of it
	port     int32
	freeBase int32
}

// swOutPort is the transmitting side of a switch port: VoQs per
// (input port, VL), per-VL queued-byte accounting for congestion
// detection, and the round-robin arbitration state. The queues, their
// occupancy words and the byte counters are stretches of the network's
// slabs starting at the three bases; rr and pending stay here.
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
	sw         *SwitchNode
	voqBase    int32 // pow2 ring in net.voqs: [inPort<<vlShift | vl]
	occBase    int32 // in net.occ: bit k ⇔ voq k non-empty
	qbytesBase int32 // in net.qbytes: queued bytes per VL across all inputs
	rr         int32 // arbitration pointer into the ring
	pending    int32 // total queued packets
}

func (ip *swInPort) free() []int {
	return ip.sw.net.free[ip.freeBase:][:ip.sw.net.cfg.NumVLs]
}

func (op *swOutPort) voqs() []ib.PacketQueue {
	return op.net.voqs[op.voqBase:][:op.sw.voqMask+1]
}

func (op *swOutPort) occ() []uint64 { return op.net.occ[op.occBase:][:op.sw.occWords] }

func (op *swOutPort) qbytes() []int {
	return op.net.qbytes[op.qbytesBase:][:op.net.cfg.NumVLs]
}

// pow2ceil rounds x (≥ 1) up to the next power of two.
func pow2ceil(x int) int { return 1 << bits.Len(uint(x-1)) }

// voqRing returns the VoQ ring geometry of a switch with nports ports
// carrying nvl lanes: the VL stride's shift, the ring length and its
// occupancy words.
func voqRing(nports, nvl int) (vlShift uint, ring, words int) {
	vlShift = uint(bits.Len(uint(nvl - 1)))
	ring = pow2ceil(nports) << vlShift
	return vlShift, ring, (ring + 63) / 64
}

// newSwitchNode builds a switch whose connected ports, one contiguous
// allocation per direction, take their slab stretches at cur.
func newSwitchNode(n *Network, node *topo.Node, index int, cur *slabCursor) *SwitchNode {
	sw := &SwitchNode{net: n, id: node.ID, index: index}
	nports, nvl := len(node.Ports), n.cfg.NumVLs
	shift, ring, words := voqRing(nports, nvl)
	sw.vlShift, sw.voqMask, sw.occWords = shift, int32(ring-1), int32(words)
	sw.in = make([]*swInPort, nports)
	sw.out = make([]*swOutPort, nports)
	connected := 0
	for _, port := range node.Ports {
		if port.Connected() {
			connected++
		}
	}
	ins, outs := make([]swInPort, connected), make([]swOutPort, connected)
	for p := 0; p < nports; p++ {
		if !node.Ports[p].Connected() {
			continue
		}
		ip, op := &ins[0], &outs[0]
		ins, outs = ins[1:], outs[1:]
		*ip = swInPort{sw: sw, port: int32(p), freeBase: int32(cur.free)}
		fill(ip.free(), n.cfg.SwitchIbufBytes)
		sw.in[p] = ip
		op.sw, op.net = sw, n
		op.index = int32(cur.links)
		op.voqBase, op.occBase, op.qbytesBase = int32(cur.voqs), int32(cur.occ), int32(cur.qbytes)
		op.txAct = swTxAct{op}
		sw.out[p] = op
		cur.links++
		cur.free += nvl
		cur.qbytes += nvl
		cur.occ += words
		cur.voqs += ring
	}
	return sw
}

// arrive admits a packet into the input buffer, routes it, and enqueues
// it on the VoQ of its output port. Buffer space is guaranteed by the
// upstream credit discipline; running out here is a model bug.
func (ip *swInPort) arrive(p *ib.Packet) {
	sw := ip.sw
	n := sw.net
	free := &n.free[int(ip.freeBase)+int(p.VL)]
	*free -= p.WireBytes()
	if n.cfg.Check && *free < 0 {
		panic(fmt.Sprintf("fabric: ibuf overflow at switch %d port %d vl %d", sw.index, ip.port, p.VL))
	}
	outPort := n.routing.OutPort(sw.id, p.Dst)
	op := sw.out[outPort]
	if n.cfg.Check && op == nil {
		panic(fmt.Sprintf("fabric: route to %d via unconnected port %d of switch %d", p.Dst, outPort, sw.index))
	}
	op.enqueue(ip, p)
}

// dropArrive implements the fault layer's discard at this receiver: the
// buffer slot was never occupied, so the transmitter's credit goes
// straight back upstream.
func (ip *swInPort) dropArrive(p *ib.Packet) {
	ip.sw.net.sendCredit(ip.up, ip.upLink, p.VL, p.WireBytes())
}

// enqueue files a packet that arrived on ip under its VoQ and runs the
// arbiter. A packet that arrives alone at an idle, up port would be
// pushed, found by a one-slot arbitration pass and popped again; it is
// instead offered the grant directly (admit, depart), so neither its VoQ
// slot nor its occupancy bit is touched. A refusal queues it and stalls
// the link as that pass would have, and the bus sees the same events in
// the same order either way: this QueueSampled, then CreditStalled or
// depart's QueueSampled and PacketSent.
func (op *swOutPort) enqueue(ip *swInPort, p *ib.Packet) {
	n := op.net
	qbytes := &n.qbytes[int(op.qbytesBase)+int(p.VL)]
	// Arrival-side congestion sampling: the hook sees the queue the
	// packet joins, before it is added.
	if n.hooks.SwitchEnqueue != nil && p.Type == ib.DataPacket {
		n.fold()
		st := PortVLState{
			QueuedBytes:   *qbytes,
			CreditBytes:   *op.credit(p.VL),
			CapacityBytes: n.cfg.SwitchIbufBytes,
			HostPort:      op.hostFacing,
		}
		n.hooks.SwitchEnqueue(op.sw.index, op.port, p, st)
	}
	*qbytes += p.WireBytes()
	n.bus.QueueSampled(n.simr.Now(), op.sw.index, op.port, op.hostFacing, p.VL, *qbytes)
	k := int(ip.port)<<op.sw.vlShift | int(p.VL)
	if op.pending == 0 && !op.down && !op.isBusy() {
		n.fold()
		if vlNext, ok := op.admit(ip, p); ok {
			op.rr = int32(k+1) & op.sw.voqMask
			op.depart(ip, p, vlNext)
		} else {
			op.push(k, p)
			n.stall(&op.linkOut)
		}
		return
	}
	op.push(k, p)
	op.tryTx()
}

// push files p under VoQ k and marks the slot occupied.
func (op *swOutPort) push(k int, p *ib.Packet) {
	op.net.voqs[int(op.voqBase)+k].Push(p)
	op.net.occ[int(op.occBase)+k>>6] |= 1 << (k & 63)
	op.pending++
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
	occ := op.occ()
	nw := len(occ)
	start := int(op.rr >> 6)
	below := uint64(1)<<(op.rr&63) - 1
	for i := 0; i <= nw; i++ {
		w := start + i
		if w >= nw {
			w -= nw
		}
		word := occ[w]
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

// grant transmits the head of occupied VoQ k if admit lets it, reporting
// whether it did.
func (op *swOutPort) grant(k int) bool {
	n := op.net
	q := &n.voqs[int(op.voqBase)+k]
	head := q.Peek()
	ip := op.sw.in[k>>op.sw.vlShift]
	vlNext, ok := op.admit(ip, head)
	if !ok {
		return false
	}
	op.rr = int32(k+1) & op.sw.voqMask
	q.Pop()
	if q.Empty() {
		n.occ[int(op.occBase)+k>>6] &^= 1 << (k & 63)
	}
	op.pending--
	op.depart(ip, head, vlNext)
	return true
}

// admit decides whether head, which arrived on ip, may leave now, and on
// which lane: the packet may continue on a different VL (dateline
// switching), and the grant needs credits on the outgoing one. A refusal
// publishes the credit stall.
func (op *swOutPort) admit(ip *swInPort, head *ib.Packet) (vlNext ib.VL, ok bool) {
	n := op.net
	vlNext = head.VL
	if n.hooks.SelectVL != nil {
		vlNext = n.hooks.SelectVL(op.sw.index, int(ip.port), op.port, head)
	}
	wire := head.WireBytes()
	if credits := *op.credit(vlNext); credits < wire {
		n.bus.CreditStalled(n.simr.Now(), true, op.sw.index, op.port, vlNext, credits, wire)
		return vlNext, false
	}
	return vlNext, true
}

// depart sends an admitted packet that is no longer (or never was)
// queued: it frees input-buffer space (returning a credit upstream),
// gives the congestion-control hook a chance to FECN-mark the packet,
// and occupies the serializer.
func (op *swOutPort) depart(ip *swInPort, head *ib.Packet, vlNext ib.VL) {
	n := op.net
	vl, wire := head.VL, head.WireBytes()
	qbytes := &n.qbytes[int(op.qbytesBase)+int(vl)]
	*qbytes -= wire
	// Congestion-control hook sees the queue left behind the departing
	// packet and the credit state after this grant.
	if n.hooks.SwitchDeparture != nil && head.Type == ib.DataPacket {
		st := PortVLState{
			QueuedBytes:   *qbytes,
			CreditBytes:   *op.credit(vl) - wire,
			CapacityBytes: n.cfg.SwitchIbufBytes,
			HostPort:      op.hostFacing,
		}
		n.hooks.SwitchDeparture(op.sw.index, op.port, head, st)
	}

	// Free the input buffer slot and return the credit upstream on the
	// VL the packet occupied locally, then move it to its outgoing VL.
	n.free[int(ip.freeBase)+int(vl)] += wire
	n.sendCredit(ip.up, ip.upLink, vl, wire)
	head.VL = vlNext

	n.bus.QueueSampled(n.simr.Now(), op.sw.index, op.port, op.hostFacing, vl, *qbytes)
	n.bus.PacketSent(n.simr.Now(), true, op.sw.index, op.port, head)
	op.transmit(head, op.pending > 0)
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
	return s.out[out].qbytes()[vl]
}

// Index returns the dense switch index.
func (s *SwitchNode) Index() int { return s.index }

// NodeID returns the topology node of this switch.
func (s *SwitchNode) NodeID() topo.NodeID { return s.id }

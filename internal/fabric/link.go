package fabric

import (
	"fmt"

	"repro/internal/ib"
	"repro/internal/sim"
)

// packetTaker is the receiving side of a link: a switch input port or a
// host receive buffer. arrive is invoked when the packet becomes
// available to the receiver (head arrival under cut-through, tail arrival
// under store-and-forward).
type packetTaker interface {
	arrive(p *ib.Packet)
	// dropArrive is invoked instead of arrive when the fault layer
	// discards the packet at the end of its wire flight: the receiver
	// never takes custody but must still return the credit the
	// transmitter spent, as if the packet had been consumed and freed
	// instantly.
	dropArrive(p *ib.Packet)
}

// creditTaker is the transmitting side of a link, which consumes credits
// the receiver returns as its buffer drains.
type creditTaker interface {
	addCredit(vl ib.VL, bytes int)
	// txLink is the transmitter the credits belong to.
	txLink() *linkOut
}

// linkOut is the transmit machinery shared by switch output ports and
// HCA send ports: per-VL credit counters mirroring downstream free
// buffer space, the serializer's busy state, and the downstream
// endpoint.
//
// Two kinds of event would, most of the time, do nothing when they
// fire, and are therefore scheduled only when something is waiting for
// them (DESIGN.md, "Events that are never scheduled"):
//
//   - The serializer-done callback matters only if a packet waits
//     behind the transmission. transmit reserves its (busyUntil, txSeq)
//     key and schedules it only if one is already queued; otherwise the
//     first arbitration pass that finds the link busy with something to
//     send arms it under that key (busyWith), and if none comes the link
//     simply reads as idle once the key has passed (isBusy).
//   - A credit update matters when it lands only if the arbiter is
//     stalled: packets wait, the serializer is idle, and no lane had
//     credits for any of them. Otherwise it is a counter increment
//     nobody can act on yet, so it is parked under its own reserved key
//     (Network.park) and folded into credits, in key order, before
//     anything reads the counter (Network.fold). An arbitration pass
//     that stalls turns the updates still in flight for its link into
//     real events (Network.stall).
//
// Because the keys are reserved at the point in program order where the
// events used to be scheduled, every other event keeps its sequence
// number and every timestamp tie resolves as it always did.
//
// What a link counts lives in the network's slabs (see Network), all of
// it found from index: its per-VL credits (Network.credit) and the two
// facts a credit return needs — stalled and the parked count — so the
// receiver that returns a credit reads and writes those without touching
// this struct.
type linkOut struct {
	net *Network
	dst packetTaker

	// busy: a transmission occupies the serializer until the key
	// (busyUntil, txSeq) passes. armed: txAct is in the event list under
	// that key. busy ∧ ¬armed ⇒ nothing is waiting to be sent.
	busy, armed bool
	// hostFacing reports whether the downstream endpoint is an HCA.
	hostFacing bool
	// Transmitter identity in the flight-recorder namespace: atSwitch
	// selects switch vs host for node (dense switch index vs LID); port
	// is always 0 on hosts. Set once at wiring time.
	atSwitch bool
	// Fault state, driven by SetLinkDown / SetLinkSlow. down gates the
	// arbiter entry points (not the credit test, so an outage never reads
	// as a credit stall); slow > 1 multiplies serialization time.
	down bool
	// check caches cfg.Check so the per-packet transmit path reads one
	// local byte instead of chasing net→cfg.
	check bool

	// index is the link's slot in net.links and names its stretch of
	// net.credits (call net.fold before reading them).
	index int32

	node, port int
	slow       float64

	busyUntil sim.Time
	txSeq     uint64
	txAct     sim.Action // the owner's pre-bound serializer-done callback
}

// linkState is what a credit return needs to know about the transmitter
// it goes back to, kept apart from linkOut in a dense per-link array.
type linkState struct {
	// stalled: the last arbitration pass found packets waiting and no
	// lane with credits for any of them, and nothing was sent since —
	// the one state in which a credit update wakes somebody up.
	stalled bool
	// nParked counts the link's entries in the network's parked ring.
	nParked uint8
}

// credit is link's counter for vl in the credit slab, which holds NumVLs
// counters per link in index order — a layout only this function and
// linkOut.credits know. It needs nothing of the port but its index, so
// a credit return can use it too.
func (n *Network) credit(link int32, vl ib.VL) *int {
	return &n.credits[int(link)*n.cfg.NumVLs+int(vl)]
}

// credits is the link's stretch of the credit slab, one counter per VL,
// for cold code.
func (l *linkOut) credits() []int {
	nvl := l.net.cfg.NumVLs
	return l.net.credits[int(l.index)*nvl:][:nvl]
}

// credit is the link's credit counter for vl.
func (l *linkOut) credit(vl ib.VL) *int { return l.net.credit(l.index, vl) }

// state is the link's entry in the dense per-link array.
func (l *linkOut) state() *linkState { return &l.net.links[l.index] }

// initCredits gives each lane the full downstream buffer; the caller has
// set hostFacing.
func (l *linkOut) initCredits() {
	fill(l.credits(), l.capBytes())
	l.check = l.net.cfg.Check
}

// fill sets every counter of a slab stretch to v.
func fill(s []int, v int) {
	for i := range s {
		s[i] = v
	}
}

// capBytes is the downstream buffer capacity per VL: the initial credit
// and the bound credits plus parked updates may never exceed.
func (l *linkOut) capBytes() int {
	if l.hostFacing {
		return l.net.cfg.HostIbufBytes
	}
	return l.net.cfg.SwitchIbufBytes
}

// isBusy reports whether the serializer is occupied, retiring a
// transmission whose unarmed completion key has passed.
func (l *linkOut) isBusy() bool {
	if l.busy && !l.armed && l.net.simr.Passed(l.busyUntil, l.txSeq) {
		l.busy = false
	}
	return l.busy
}

// busyWith is the arbiters' first question: is the serializer occupied?
// If it is and a packet is waiting, that packet needs the done callback,
// which is put into the event list under the key reserved for it at
// transmit time (once) — the one place busy ∧ ¬armed ⇒ nothing waiting
// is maintained.
func (l *linkOut) busyWith(waiting bool) bool {
	if !l.isBusy() {
		return false
	}
	if waiting && !l.armed {
		l.armed = true
		l.net.simr.ScheduleReserved(l.busyUntil, l.txSeq, l.txAct)
	}
	return true
}

// addCredits applies a landed credit update.
func (l *linkOut) addCredits(vl ib.VL, bytes int) {
	cr := l.credit(vl)
	*cr += bytes
	if l.check && *cr > l.capBytes() {
		panic(fmt.Sprintf("fabric: credit overflow at %s", l.name()))
	}
}

// name renders the transmitter for diagnostics.
func (l *linkOut) name() string {
	if l.atSwitch {
		return fmt.Sprintf("switch %d port %d", l.node, l.port)
	}
	return fmt.Sprintf("host %d", l.node)
}

// transmit consumes credits, schedules the downstream arrival and
// occupies the serializer; the caller must have checked isBusy and the
// credits. waiting says whether another packet is already queued behind
// this one: only then does anything need the serializer-done callback,
// so only then is it scheduled now.
func (l *linkOut) transmit(p *ib.Packet, waiting bool) {
	wire := p.WireBytes()
	cr := l.credit(p.VL)
	*cr -= wire
	if l.check && *cr < 0 {
		panic(fmt.Sprintf("fabric: negative credits on vl %d", p.VL))
	}
	ser := l.net.cfg.LinkRate.TxTime(wire)
	if l.slow > 1 {
		ser = sim.Duration(float64(ser) * l.slow)
	}
	arrival := l.net.cfg.PropDelay + l.net.cfg.HopLatency
	if !l.net.cfg.CutThrough {
		arrival += ser
	}
	if d := l.net.dropper; d != nil && d.DropPacket(l.atSwitch, l.hostFacing, l.node, l.port, p) {
		l.net.scheduleDrop(arrival, l, p)
	} else {
		l.net.scheduleArrival(arrival, l.dst, p)
	}
	l.busy, l.armed = true, false
	l.state().stalled = false
	l.busyUntil = l.net.simr.Now().Add(ser)
	l.txSeq = l.net.simr.Reserve()
	l.busyWith(waiting)
}

// txDone is the armed serializer-done callback's first step.
func (l *linkOut) txDone() { l.busy, l.armed = false, false }

// parkedCap bounds the credit updates the network defers at a time; a
// further one travels as a real event. Entries live from the update's
// departure until the first counter read after it lands, about one
// propagation delay, so the ring holds the handful of updates in flight
// network-wide, not one per packet: on the 648-node fabric it is below
// 8 entries for 99.4 % of insertions and below 64 for all but the
// synchronized start-up burst (0.02 %). A power of two.
const parkedCap = 64

// linkState.nParked counts ring entries in a byte.
const _ = uint8(parkedCap)

// parkedCredit is a credit update that was never scheduled: bytes on
// vl count for link from the moment the key (at, seq) passes. The
// transmitter is named twice: link indexes the slabs, which is all
// parking and folding need; taker is stored but not followed, except to
// materialise the update as an event (see stall) and to name the link in
// diagnostics.
type parkedCredit struct {
	at    sim.Time
	seq   uint64
	taker creditTaker // nil once materialised as an event (see stall)
	bytes int32
	link  int32
	vl    ib.VL
}

// parkedRing is the network's FIFO of parked credit updates. Every
// parked update lands one propagation delay after it left and takes the
// next sequence number, so keys ascend in insertion order and the ring
// drains from the head.
type parkedRing struct {
	buf       [parkedCap]parkedCredit
	head, len int
}

func (r *parkedRing) at(i int) *parkedCredit { return &r.buf[(r.head+i)%parkedCap] }

// park defers a credit update for taker, the transmitter of link,
// landing at `at` unless its arbiter is stalled — the only state in
// which the update would do more than increment a counter when it lands
// — and reports whether it did. The update's sequence number is
// reserved here, where its event would have been scheduled. An update
// delayed by a refresh would break the ring's key order and stays a real
// event, as does one that finds the ring full.
func (n *Network) park(taker creditTaker, link int32, at sim.Time, delayed bool, vl ib.VL, bytes int) bool {
	l := &n.links[link]
	if delayed || l.stalled {
		return false
	}
	r := &n.parked
	if r.len == parkedCap {
		n.fold()
		if r.len == parkedCap {
			return false
		}
	}
	*r.at(r.len) = parkedCredit{at: at, seq: n.simr.Reserve(), taker: taker, bytes: int32(bytes), link: link, vl: vl}
	r.len++
	l.nParked++
	return true
}

// fold moves every parked credit update whose key has passed into its
// link's counters. Every read of any link's credits is preceded by it.
func (n *Network) fold() {
	if n.parked.len > 0 {
		n.foldLanded()
	}
}

func (n *Network) foldLanded() {
	r := &n.parked
	for r.len > 0 {
		c := &r.buf[r.head]
		if c.taker != nil {
			if !n.simr.Passed(c.at, c.seq) {
				return
			}
			cr := n.credit(c.link, c.vl)
			*cr += int(c.bytes)
			if n.cfg.Check {
				if l := c.taker.txLink(); *cr > l.capBytes() {
					panic(fmt.Sprintf("fabric: credit overflow at %s", l.name()))
				}
			}
			n.links[c.link].nParked--
			c.taker = nil
		}
		r.head = (r.head + 1) % parkedCap
		r.len--
	}
}

// stall records that l's arbiter found packets waiting and could send
// none of them for want of credits. From here until the next
// transmission a credit update is a wake-up, so the ones still in
// flight for l become real events under their reserved keys (callers
// fold first: whatever is still parked has not landed) and later ones
// are scheduled outright.
func (n *Network) stall(l *linkOut) {
	st := l.state()
	st.stalled = true
	r := &n.parked
	for i := 0; st.nParked > 0 && i < r.len; i++ {
		c := r.at(i)
		if c.taker == nil || c.link != l.index {
			continue
		}
		n.simr.ScheduleReserved(c.at, c.seq, n.newCreditAct(c.taker, c.vl, int(c.bytes)))
		c.taker = nil
		st.nParked--
	}
}

// parkedBytes sums the credit parked for l on vl, landed or not.
func (n *Network) parkedBytes(l *linkOut, vl int) int {
	sum := 0
	if l.state().nParked == 0 {
		return sum
	}
	for i := 0; i < n.parked.len; i++ {
		if c := n.parked.at(i); c.taker != nil && c.link == l.index && int(c.vl) == vl {
			sum += int(c.bytes)
		}
	}
	return sum
}

// eachLink calls f for every transmitter with whether packets are queued
// behind its serializer, stopping at the first error.
func (n *Network) eachLink(f func(l *linkOut, waiting bool) error) error {
	for _, h := range n.hcas {
		if err := f(&h.out, !h.obuf.Empty()); err != nil {
			return err
		}
	}
	for _, sw := range n.switches {
		for _, op := range sw.out {
			if op == nil {
				continue
			}
			if err := f(&op.linkOut, op.pending > 0); err != nil {
				return err
			}
		}
	}
	return nil
}

package fabric

import (
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/ib"
	"repro/internal/sim"
)

// This file is the fabric half of the checkpoint/restore contract
// (internal/ckpt): a typed export of every piece of mutable fabric
// state — packet custody in staging/control/receive/VoQ queues and
// in-service slots, per-VL credit and free-space accounting, link
// serializer/fault state, traffic counters, pool books, drop ledger —
// and the action codec that maps the fabric's pending future-event-list
// entries to serializable (kind, args) records and back.
//
// Restore overlays this state onto a freshly Built network: the wiring
// (takers, upstream credit destinations, action bindings) is identical
// by construction, so only the mutable fields move. The envelope's CRC
// only proves the bytes are the ones written, so the overlay checks what
// it indexes with — shapes, lane counts, ring positions, packet claims,
// transmitters — and that the state is in the canonical form export
// writes. Whether the overlaid state is a legal one is not decided here:
// RestoreState ends with the rules the invariant checker sweeps on a
// live run (CheckState), so a snapshot is held to exactly the laws a run
// is.

// LinkOutState is the mutable state of one transmitter. While Busy, the
// serializer is occupied until the key (BusyUntil, TxSeq) passes; Armed
// says that key's serializer-done event is among the snapshot's pending
// events (it must be, and only then). An idle link exports neither.
// Stalled marks an idle transmitter whose waiting packets found no
// credits: its credit updates travel as events, everyone else's are
// parked (State.Parked).
type LinkOutState struct {
	Credits   []int    `json:"credits"`
	Busy      bool     `json:"busy,omitempty"`
	Down      bool     `json:"down,omitempty"`
	Slow      float64  `json:"slow,omitempty"`
	BusyUntil sim.Time `json:"busy_until_ps,omitempty"`
	TxSeq     uint64   `json:"tx_seq,omitempty"`
	Armed     bool     `json:"armed,omitempty"`
	Stalled   bool     `json:"stalled,omitempty"`
}

// ParkedCredit is one deferred credit update (see linkOut): Bytes on VL
// count for the transmitter (AtSwitch, Node, Port) from the moment the
// key (At, Seq) passes.
type ParkedCredit struct {
	At       sim.Time `json:"at_ps"`
	Seq      uint64   `json:"seq"`
	AtSwitch bool     `json:"at_switch,omitempty"`
	Node     int      `json:"node"`
	Port     int      `json:"port,omitempty"`
	VL       uint8    `json:"vl,omitempty"`
	Bytes    int      `json:"bytes"`
}

// HCAState is the mutable state of one end node. Queue fields hold
// 1-based packet-table references in FIFO order.
type HCAState struct {
	Obuf      []int `json:"obuf,omitempty"`
	ObufBytes int   `json:"obuf_bytes,omitempty"`
	Ctrl      []int `json:"ctrl,omitempty"`
	DmaBusy   bool  `json:"dma_busy,omitempty"`
	DmaPkt    int   `json:"dma_pkt,omitempty"`
	RxFree    []int `json:"rx_free"`
	RxQ       []int `json:"rxq,omitempty"`
	SinkBusy  bool  `json:"sink_busy,omitempty"`
	SinkPkt   int   `json:"sink_pkt,omitempty"`

	Out LinkOutState `json:"out"`
	Ctr HCACounters  `json:"ctr"`
}

// VoQState is one non-empty virtual output queue, keyed by its ring
// index (inPort<<vlShift | vl — the layout is derived from the config,
// so the key is stable across rebuilds of the same scenario).
type VoQState struct {
	K    int   `json:"k"`
	Pkts []int `json:"pkts"`
}

// SwOutState is the mutable state of one switch output port.
type SwOutState struct {
	Link    LinkOutState `json:"link"`
	VoQs    []VoQState   `json:"voqs,omitempty"`
	Qbytes  []int        `json:"qbytes"`
	RR      int          `json:"rr,omitempty"`
	Pending int          `json:"pending,omitempty"`
}

// SwInState is the mutable state of one switch input port.
type SwInState struct {
	Free []int `json:"free"`
}

// SwitchState is the mutable state of one switch; nil entries mirror
// unconnected ports.
type SwitchState struct {
	In  []*SwInState  `json:"in"`
	Out []*SwOutState `json:"out"`
}

// State is the fabric's complete mutable state.
type State struct {
	HCAs     []HCAState    `json:"hcas"`
	Switches []SwitchState `json:"switches"`
	// Parked are the credit updates not yet landed, in key order.
	Parked []ParkedCredit `json:"parked,omitempty"`
	Pool   ib.PoolStats   `json:"pool"`
	Audit  AuditCounters  `json:"audit"`
}

func queueRefs(t *ckpt.PacketTable, q *ib.PacketQueue) []int {
	if q.Empty() {
		return nil
	}
	out := make([]int, 0, q.Len())
	for p := q.Peek(); p != nil; p = p.Next {
		out = append(out, t.Ref(p))
	}
	return out
}

// claim resolves a packet reference for the custody site or event that
// owns it: a reference out of range or owned twice, and a lane the
// fabric does not have, are errors rather than a panic at the packet's
// next hop.
func (n *Network) claim(t *ckpt.PacketTable, ref int) (*ib.Packet, error) {
	p, err := t.Claim(ref)
	if err != nil {
		return nil, err
	}
	if p != nil && int(p.VL) >= n.cfg.NumVLs {
		return nil, fmt.Errorf("packet %d on vl %d of %d", ref, p.VL, n.cfg.NumVLs)
	}
	return p, nil
}

// restoreQueue relinks q from refs in FIFO order.
func (n *Network) restoreQueue(t *ckpt.PacketTable, q *ib.PacketQueue, refs []int) error {
	*q = ib.PacketQueue{}
	for _, r := range refs {
		p, err := n.claim(t, r)
		if err != nil {
			return err
		}
		if p == nil {
			return fmt.Errorf("nil packet reference in a queue")
		}
		q.Push(p)
	}
	return nil
}

// exportLink captures a transmitter in canonical form: a transmission
// whose unarmed key has passed is retired first (which changes nothing
// the model will do), so equal model states export equal records
// however lazily they were settled.
func exportLink(l *linkOut) LinkOutState {
	st := LinkOutState{Credits: append([]int(nil), l.credits()...), Down: l.down, Slow: l.slow, Stalled: l.state().stalled}
	if l.isBusy() {
		st.Busy, st.BusyUntil, st.TxSeq, st.Armed = true, l.busyUntil, l.txSeq, l.armed
	}
	return st
}

// restoreLink overlays one transmitter. Export retires an unarmed key
// the clock has passed, so a snapshot still carrying one was not written
// by it; the kernel scalars are already in place (core restores them
// first), so the key is judged against the snapshot's own clock.
func (n *Network) restoreLink(l *linkOut, st LinkOutState) error {
	if len(st.Credits) != n.cfg.NumVLs {
		return fmt.Errorf("%d credit lanes, want %d", len(st.Credits), n.cfg.NumVLs)
	}
	if !st.Busy {
		st.BusyUntil, st.TxSeq = 0, 0
	} else if !st.Armed && n.simr.Passed(st.BusyUntil, st.TxSeq) {
		return fmt.Errorf("busy until %v (seq %d) with no done event armed, which the snapshot clock has passed", st.BusyUntil, st.TxSeq)
	}
	copy(l.credits(), st.Credits)
	l.busy, l.down, l.slow = st.Busy, st.Down, st.Slow
	l.busyUntil, l.txSeq, l.armed = st.BusyUntil, st.TxSeq, st.Armed
	*l.state() = linkState{stalled: st.Stalled}
	return nil
}

// restoreParked refills the parked-credit ring, after every link is
// restored: each update must fit the ring, target a transmitter and a
// lane the fabric has with a size the ring's field holds, and not have
// landed yet (export folds those).
func (n *Network) restoreParked(parked []ParkedCredit) error {
	n.parked = parkedRing{}
	if len(parked) > parkedCap {
		return fmt.Errorf("%d parked credits, the ring holds %d", len(parked), parkedCap)
	}
	for i, c := range parked {
		taker, err := n.transmitter(c.AtSwitch, int64(c.Node), int64(c.Port))
		if err != nil {
			return fmt.Errorf("parked credit %d: %w", i, err)
		}
		l := taker.txLink()
		switch {
		case int(c.VL) >= n.cfg.NumVLs:
			return fmt.Errorf("parked credit %d on vl %d of %d", i, c.VL, n.cfg.NumVLs)
		case int(int32(c.Bytes)) != c.Bytes:
			return fmt.Errorf("parked credit %d of %d bytes", i, c.Bytes)
		case n.simr.Passed(c.At, c.Seq):
			return fmt.Errorf("parked credit %d key (%v, %d) is behind the snapshot clock", i, c.At, c.Seq)
		}
		*n.parked.at(i) = parkedCredit{at: c.At, seq: c.Seq, taker: taker, bytes: int32(c.Bytes), link: l.index, vl: ib.VL(c.VL)}
		n.parked.len++
		l.state().nParked++
	}
	return nil
}

// ExportState captures the fabric's mutable state, interning every held
// packet into tab.
func (n *Network) ExportState(tab *ckpt.PacketTable) *State {
	st := &State{HCAs: make([]HCAState, len(n.hcas)), Switches: make([]SwitchState, len(n.switches))}
	// Landed updates are folded first: like retiring a passed
	// serializer key, it changes nothing the model will do.
	n.fold()
	for i := 0; i < n.parked.len; i++ {
		c := n.parked.at(i)
		if c.taker == nil {
			continue
		}
		l := c.taker.txLink()
		st.Parked = append(st.Parked, ParkedCredit{
			At: c.at, Seq: c.seq, AtSwitch: l.atSwitch, Node: l.node, Port: l.port,
			VL: uint8(c.vl), Bytes: int(c.bytes),
		})
	}
	for i, h := range n.hcas {
		st.HCAs[i] = HCAState{
			Obuf:      queueRefs(tab, &h.obuf),
			ObufBytes: h.obufBytes,
			Ctrl:      queueRefs(tab, &h.ctrl),
			DmaBusy:   h.dmaBusy,
			DmaPkt:    tab.Ref(h.dmaPkt),
			RxFree:    append([]int(nil), h.rxFree()...),
			RxQ:       queueRefs(tab, &h.rxQ),
			SinkBusy:  h.sinkBusy,
			SinkPkt:   tab.Ref(h.sinkPkt),
			Out:       exportLink(&h.out),
			Ctr:       h.ctr,
		}
	}
	for i, sw := range n.switches {
		ss := SwitchState{In: make([]*SwInState, len(sw.in)), Out: make([]*SwOutState, len(sw.out))}
		for pi, ip := range sw.in {
			if ip == nil {
				continue
			}
			ss.In[pi] = &SwInState{Free: append([]int(nil), ip.free()...)}
		}
		for pi, op := range sw.out {
			if op == nil {
				continue
			}
			os := &SwOutState{
				Link:    exportLink(&op.linkOut),
				Qbytes:  append([]int(nil), op.qbytes()...),
				RR:      int(op.rr),
				Pending: int(op.pending),
			}
			voqs := op.voqs()
			for k := range voqs {
				if refs := queueRefs(tab, &voqs[k]); refs != nil {
					os.VoQs = append(os.VoQs, VoQState{K: k, Pkts: refs})
				}
			}
			ss.Out[pi] = os
		}
		st.Switches[i] = ss
	}
	st.Pool = n.pool.Stats()
	st.Audit = n.aud
	return st
}

// RestoreState overlays a checkpointed fabric state onto a freshly
// built network of the same scenario and judges the result by the
// fabric's state rules.
func (n *Network) RestoreState(st *State, tab *ckpt.PacketTable) error {
	if len(st.HCAs) != len(n.hcas) || len(st.Switches) != len(n.switches) {
		return fmt.Errorf("fabric: restore shape %d hosts/%d switches, want %d/%d",
			len(st.HCAs), len(st.Switches), len(n.hcas), len(n.switches))
	}
	for i, h := range n.hcas {
		if err := n.restoreHCA(h, &st.HCAs[i], tab); err != nil {
			return fmt.Errorf("fabric: restore host %d: %w", i, err)
		}
	}
	for i, sw := range n.switches {
		ss := &st.Switches[i]
		if len(ss.In) != len(sw.in) || len(ss.Out) != len(sw.out) {
			return fmt.Errorf("fabric: restore switch %d port shape mismatch", i)
		}
		for pi, ip := range sw.in {
			is := ss.In[pi]
			if (ip == nil) != (is == nil) {
				return fmt.Errorf("fabric: restore switch %d in-port %d connectivity mismatch", i, pi)
			}
			if ip == nil {
				continue
			}
			if len(is.Free) != n.cfg.NumVLs {
				return fmt.Errorf("fabric: restore switch %d in-port %d lane count", i, pi)
			}
			copy(ip.free(), is.Free)
		}
		for pi, op := range sw.out {
			osrc := ss.Out[pi]
			if (op == nil) != (osrc == nil) {
				return fmt.Errorf("fabric: restore switch %d out-port %d connectivity mismatch", i, pi)
			}
			if op == nil {
				continue
			}
			if err := n.restoreSwOut(op, osrc, tab); err != nil {
				return fmt.Errorf("fabric: restore switch %d port %d: %w", i, pi, err)
			}
		}
	}
	if err := n.restoreParked(st.Parked); err != nil {
		return fmt.Errorf("fabric: restore: %w", err)
	}
	n.pool.RestoreStats(st.Pool)
	n.aud = st.Audit
	var broken error
	n.CheckState(func(rule string, err error) {
		if broken == nil {
			broken = fmt.Errorf("%w (restored state breaks %s)", err, rule)
		}
	})
	return broken
}

func (n *Network) restoreHCA(h *HCA, hs *HCAState, tab *ckpt.PacketTable) error {
	err := n.restoreQueue(tab, &h.obuf, hs.Obuf)
	if err != nil {
		return err
	}
	h.obufBytes = hs.ObufBytes
	if err = n.restoreQueue(tab, &h.ctrl, hs.Ctrl); err != nil {
		return err
	}
	h.dmaBusy = hs.DmaBusy
	if h.dmaPkt, err = n.claim(tab, hs.DmaPkt); err != nil {
		return err
	}
	if len(hs.RxFree) != n.cfg.NumVLs {
		return fmt.Errorf("%d rx lanes, want %d", len(hs.RxFree), n.cfg.NumVLs)
	}
	copy(h.rxFree(), hs.RxFree)
	if err = n.restoreQueue(tab, &h.rxQ, hs.RxQ); err != nil {
		return err
	}
	h.sinkBusy = hs.SinkBusy
	if h.sinkPkt, err = n.claim(tab, hs.SinkPkt); err != nil {
		return err
	}
	if err := n.restoreLink(&h.out, hs.Out); err != nil {
		return err
	}
	h.ctr = hs.Ctr
	h.wake, h.wakeSeq = nil, 0 // re-linked by the wake event's decode, if pending
	return nil
}

// restoreSwOut overlays one switch output port. The VoQ ring is
// validated against everything the arbiter derives from a ring index —
// the first grant reads sw.in[k>>vlShift] and the lane accounts of the
// slot's VL — and the occupancy bitmap, which a snapshot does not carry,
// is rebuilt from the queues. RR and Pending are wider in the snapshot
// than in the port: both are range-checked before they are narrowed, or
// a Pending off by 2^32 would wrap into a state the rules accept.
func (n *Network) restoreSwOut(op *swOutPort, st *SwOutState, tab *ckpt.PacketTable) error {
	voqs, occ, qbytes := op.voqs(), op.occ(), op.qbytes()
	if len(st.Qbytes) != len(qbytes) {
		return fmt.Errorf("%d queue lanes, want %d", len(st.Qbytes), len(qbytes))
	}
	if st.RR < 0 || st.RR >= len(voqs) {
		return fmt.Errorf("arbiter pointer %d outside ring of %d", st.RR, len(voqs))
	}
	if st.Pending < 0 || st.Pending > math.MaxInt32 {
		return fmt.Errorf("pending %d outside [0, %d]", st.Pending, math.MaxInt32)
	}
	op.rr, op.pending = int32(st.RR), int32(st.Pending)
	for k := range voqs {
		voqs[k] = ib.PacketQueue{}
	}
	for w := range occ {
		occ[w] = 0
	}
	for i, vs := range st.VoQs {
		if vs.K < 0 || vs.K >= len(voqs) {
			return fmt.Errorf("voq %d of %d", vs.K, len(voqs))
		}
		if i > 0 && vs.K <= st.VoQs[i-1].K {
			return fmt.Errorf("voq %d listed out of ring order", vs.K)
		}
		inPort, vl := vs.K>>op.sw.vlShift, vs.K&(1<<op.sw.vlShift-1)
		if inPort >= len(op.sw.in) || op.sw.in[inPort] == nil || vl >= len(qbytes) {
			return fmt.Errorf("voq %d is a padding slot (in-port %d, vl %d)", vs.K, inPort, vl)
		}
		if err := n.restoreQueue(tab, &voqs[vs.K], vs.Pkts); err != nil {
			return err
		}
		if len(vs.Pkts) > 0 {
			occ[vs.K>>6] |= 1 << (vs.K & 63)
		}
	}
	copy(qbytes, st.Qbytes)
	return n.restoreLink(&op.linkOut, st.Link)
}

// Fabric action kinds in the checkpoint event records.
const (
	kindArrival = "arrival"
	kindCredit  = "credit"
	kindSwTx    = "swTx"
	kindHCATx   = "hcaTx"
	kindHCAWake = "hcaWake"
	kindHCADma  = "hcaDma"
	kindHCASink = "hcaSink"
)

// Codec translates the fabric's pending event actions to checkpoint
// records and back. Field use per kind:
//
//	arrival: B0/A0/A1 = receiver (atSwitch, node, port), Pkt = packet,
//	         B1 = drop, B2/A2/A3 = transmitter identity when dropping
//	credit:  B0/A0/A1 = transmitter (atSwitch, node, port), A2 = VL,
//	         A3 = bytes
//	swTx:    A0/A1 = switch index, port
//	hcaTx/hcaWake/hcaDma/hcaSink: A0 = host LID
type Codec struct {
	net *Network
	tab *ckpt.PacketTable
	// txDecoded counts the serializer-done events decoded, each matched
	// to the armed transmitter that reserved its key (see CheckArmed).
	txDecoded int
}

// Codec returns the fabric's action codec over the given packet table.
func (n *Network) Codec(tab *ckpt.PacketTable) *Codec { return &Codec{net: n, tab: tab} }

// EncodeAction implements the checkpoint encoder for fabric actions; ok
// is false for actions the fabric does not own.
func (c *Codec) EncodeAction(a sim.Action) (rec ckpt.EventRecord, ok bool) {
	switch v := a.(type) {
	case *arrivalAct:
		rec = ckpt.EventRecord{Kind: kindArrival, Pkt: c.tab.Ref(v.p), B1: v.drop}
		switch d := v.dst.(type) {
		case *HCA:
			rec.A0 = int64(d.lid)
		case *swInPort:
			rec.B0, rec.A0, rec.A1 = true, int64(d.sw.index), int64(d.port)
		default:
			return rec, false
		}
		if v.drop {
			rec.B2 = v.src.atSwitch
			rec.A2, rec.A3 = int64(v.src.node), int64(v.src.port)
		}
		return rec, true
	case *creditAct:
		l := v.taker.txLink()
		return ckpt.EventRecord{Kind: kindCredit, B0: l.atSwitch, A0: int64(l.node), A1: int64(l.port),
			A2: int64(v.vl), A3: int64(v.bytes)}, true
	case swTxAct:
		return ckpt.EventRecord{Kind: kindSwTx, A0: int64(v.op.sw.index), A1: int64(v.op.port)}, true
	case hcaTxAct:
		return ckpt.EventRecord{Kind: kindHCATx, A0: int64(v.h.lid)}, true
	case hcaWakeAct:
		return ckpt.EventRecord{Kind: kindHCAWake, A0: int64(v.h.lid)}, true
	case hcaDmaAct:
		return ckpt.EventRecord{Kind: kindHCADma, A0: int64(v.h.lid)}, true
	case hcaSinkAct:
		return ckpt.EventRecord{Kind: kindHCASink, A0: int64(v.h.lid)}, true
	}
	return ckpt.EventRecord{}, false
}

func (n *Network) host(a0 int64) (*HCA, error) {
	if a0 < 0 || int(a0) >= len(n.hcas) {
		return nil, fmt.Errorf("fabric: checkpoint references host %d of %d", a0, len(n.hcas))
	}
	return n.hcas[a0], nil
}

func (n *Network) swPort(a0, a1 int64) (*SwitchNode, int, error) {
	if a0 < 0 || int(a0) >= len(n.switches) {
		return nil, 0, fmt.Errorf("fabric: checkpoint references switch %d of %d", a0, len(n.switches))
	}
	sw := n.switches[a0]
	if a1 < 0 || int(a1) >= len(sw.out) {
		return nil, 0, fmt.Errorf("fabric: checkpoint references port %d of switch %d", a1, a0)
	}
	return sw, int(a1), nil
}

// transmitter resolves a transmitter — a pending credit event's or a
// parked update's destination, a serializer-done event's owner, a
// dropped arrival's source — in the flight-recorder namespace.
func (n *Network) transmitter(atSwitch bool, node, port int64) (creditTaker, error) {
	if !atSwitch {
		h, err := n.host(node)
		if err != nil {
			return nil, err
		}
		return h, nil
	}
	sw, p, err := n.swPort(node, port)
	if err != nil {
		return nil, err
	}
	if sw.out[p] == nil {
		return nil, fmt.Errorf("fabric: checkpoint references unconnected port %d of switch %d", p, node)
	}
	return sw.out[p], nil
}

// armedTx resolves a pending serializer-done event to its transmitter's
// callback. The event exists only because the restored link state says
// it is armed under exactly this key; anything else would fire a
// completion the serializer never started.
func (c *Codec) armedTx(l *linkOut, rec ckpt.EventRecord) (sim.Action, error) {
	if !l.armed || int64(l.busyUntil) != rec.T || l.txSeq != rec.Seq {
		return nil, fmt.Errorf("fabric: serializer-done event (%d, seq %d) for %s, which is not armed under that key", rec.T, rec.Seq, l.name())
	}
	c.txDecoded++
	return l.txAct, nil
}

// CheckArmed closes the armed ⇔ pending-event check once every event of
// a snapshot is decoded: armedTx vouched for each serializer-done event,
// so equal counts mean every armed transmitter has its event too. The
// opposite — armed with no event — would leave the link busy forever.
func (c *Codec) CheckArmed() error {
	armed := 0
	c.net.eachLink(func(l *linkOut, _ bool) error {
		if l.armed {
			armed++
		}
		return nil
	})
	if armed != c.txDecoded {
		return fmt.Errorf("fabric: %d serializers armed but %d serializer-done events pending", armed, c.txDecoded)
	}
	return nil
}

// DecodeAction implements the checkpoint decoder for fabric actions.
// attach, when non-nil, must be called with the restored event so
// holders of event handles (the HCA wake slot) re-link.
func (c *Codec) DecodeAction(rec ckpt.EventRecord) (act sim.Action, attach func(*sim.Event), ok bool, err error) {
	switch rec.Kind {
	case kindArrival:
		p, e := c.net.claim(c.tab, rec.Pkt)
		if e != nil {
			return nil, nil, true, fmt.Errorf("fabric: arrival event: %w", e)
		}
		if p == nil {
			return nil, nil, true, fmt.Errorf("fabric: arrival event carries no packet")
		}
		a := c.net.popArrival()
		a.p = p
		a.drop = rec.B1
		if rec.B0 {
			sw, port, e := c.net.swPort(rec.A0, rec.A1)
			if e != nil {
				return nil, nil, true, e
			}
			if sw.in[port] == nil {
				return nil, nil, true, fmt.Errorf("fabric: arrival at unconnected in-port %d of switch %d", port, rec.A0)
			}
			a.dst = sw.in[port]
		} else {
			h, e := c.net.host(rec.A0)
			if e != nil {
				return nil, nil, true, e
			}
			a.dst = h
		}
		if a.drop {
			src, e := c.net.transmitter(rec.B2, rec.A2, rec.A3)
			if e != nil {
				return nil, nil, true, e
			}
			a.src = src.txLink()
		}
		return a, nil, true, nil
	case kindCredit:
		taker, e := c.net.transmitter(rec.B0, rec.A0, rec.A1)
		if e != nil {
			return nil, nil, true, e
		}
		return &creditAct{net: c.net, taker: taker, vl: ib.VL(rec.A2), bytes: int(rec.A3)}, nil, true, nil
	case kindSwTx, kindHCATx:
		tx, e := c.net.transmitter(rec.Kind == kindSwTx, rec.A0, rec.A1)
		if e != nil {
			return nil, nil, true, e
		}
		act, e := c.armedTx(tx.txLink(), rec)
		return act, nil, true, e
	case kindHCAWake, kindHCADma, kindHCASink:
		h, e := c.net.host(rec.A0)
		if e != nil {
			return nil, nil, true, e
		}
		switch rec.Kind {
		case kindHCADma:
			return hcaDmaAct{h}, nil, true, nil
		case kindHCASink:
			return hcaSinkAct{h}, nil, true, nil
		default:
			return hcaWakeAct{h}, func(e *sim.Event) { h.wake, h.wakeSeq = e, e.Seq() }, true, nil
		}
	}
	return nil, nil, false, nil
}

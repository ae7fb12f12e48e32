// Package obs is the simulation flight recorder: a typed event bus the
// fabric and the congestion-control manager publish to, plus consumers
// that turn the event stream into artifacts — per-switch-port counters,
// a JSONL event log, a Chrome trace_event export viewable in Perfetto,
// and a congestion-tree analyzer that labels contributor and victim
// flows from the FECN topology.
//
// The bus has two tiers. The aggregate tier (Registry) is a table of
// per-port counters and run totals the per-hop publish helpers update in
// place; the stream tier builds an Event and hands it to the consumers
// subscribed to its kind. A simulation with observability disabled pays
// for neither: every publish helper is a method on a possibly-nil *Bus
// that returns before doing anything unless a tier wants the kind, so
// the packet-forward hot path adds a nil check and a mask test but no
// allocation (BenchmarkBusDisabled asserts this), and with only
// aggregate readers attached a hop costs a few counter updates and no
// Event (BenchmarkBusAggregates).
package obs

import (
	"fmt"

	"repro/internal/ib"
	"repro/internal/sim"
)

// Kind enumerates the event types the simulation publishes.
type Kind uint8

const (
	// KindPacketSent fires when a link transmitter (HCA send port or
	// switch output port) puts a packet on the wire.
	KindPacketSent Kind = iota
	// KindPacketDelivered fires when a host sink consumes a packet.
	KindPacketDelivered
	// KindFECNMarked fires when the CC manager FECN-marks a data packet
	// at a switch output Port VL.
	KindFECNMarked
	// KindBECNReturned fires when a source CA consumes a BECN (the end
	// of the FECN→CNP/ACK→BECN notification loop).
	KindBECNReturned
	// KindCCTIChanged fires when a flow's congestion control table
	// index moves: up on a BECN, down on a recovery-timer tick.
	KindCCTIChanged
	// KindCreditStalled fires when a transmitter has a packet ready but
	// the downstream VL lacks credits for it — one event per failed
	// grant attempt, so a long stall under event pressure repeats.
	KindCreditStalled
	// KindQueueSampled fires when a switch output Port VL's queued-byte
	// count changes (a packet joins or leaves), carrying the new depth.
	KindQueueSampled
	// KindLinkDown fires when the fault layer takes a transmitter down
	// (a link flap or a switch-port stall beginning).
	KindLinkDown
	// KindLinkUp fires when a downed transmitter comes back.
	KindLinkUp
	// KindPacketDropped fires when the fault layer discards a packet at
	// the end of its wire flight (PktID > 0, full packet identity) or a
	// flow-control credit update (PktID 0, CreditBytes = lost credit).
	KindPacketDropped
	// KindMsgCompleted fires when a host sink consumes the final packet
	// of an application message — the per-message completion signal the
	// telemetry layer feeds its completion-time histogram from. The
	// event carries the last packet's identity; Time − Inject is that
	// packet's network latency, and the message's own span starts at
	// the Inject of its MsgSeq-0 packet.
	KindMsgCompleted

	// NumKinds is the number of event kinds. Kinds are strictly
	// appended (the fault kinds after the original seven, the telemetry
	// kinds after those) so that recorded streams of the earlier kinds
	// keep their digests; obs.Digest additionally excludes kinds beyond
	// digestKindLimit, pinning the golden trajectories for good.
	NumKinds
)

func (k Kind) String() string {
	switch k {
	case KindPacketSent:
		return "packet_sent"
	case KindPacketDelivered:
		return "packet_delivered"
	case KindFECNMarked:
		return "fecn_marked"
	case KindBECNReturned:
		return "becn_returned"
	case KindCCTIChanged:
		return "ccti_changed"
	case KindCreditStalled:
		return "credit_stalled"
	case KindQueueSampled:
		return "queue_sampled"
	case KindLinkDown:
		return "link_down"
	case KindLinkUp:
		return "link_up"
	case KindPacketDropped:
		return "packet_dropped"
	case KindMsgCompleted:
		return "msg_completed"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one flight-recorder record. It is a flat value struct —
// consumers receive it by value, so publishing never allocates. Fields
// beyond Kind and Time are populated per kind; see the publish helpers.
type Event struct {
	Kind Kind
	// Switch reports whether the location is a switch (Node = dense
	// switch index) or a host (Node = LID, Port 0).
	Switch bool
	// Hotspot mirrors the packet's hotspot-destination marker.
	Hotspot bool
	// HostPort reports, for switch-port events, whether the port faces
	// an HCA (where congestion-tree roots form).
	HostPort bool
	// FECN/BECN mirror the packet's notification bits at event time.
	FECN, BECN bool
	Type       ib.PacketType
	VL         ib.VL

	Time sim.Time
	Node int
	Port int

	// Packet identity, for packet-scoped kinds.
	PktID    uint64
	Src, Dst ib.LID
	// Bytes is the packet's wire size (or the bytes a stalled grant
	// needed).
	Bytes int

	// QueuedBytes is the output Port VL queue depth: the depth joined
	// (after enqueue) or left behind (after departure) for
	// KindQueueSampled, and the depth that triggered the mark for
	// KindFECNMarked.
	QueuedBytes int
	// CreditBytes is the downstream free space known to the
	// transmitter (KindFECNMarked, KindCreditStalled).
	CreditBytes int

	// OldCCTI and NewCCTI bracket a KindCCTIChanged step.
	OldCCTI, NewCCTI uint16

	// Inject is when the packet's first byte entered the source HCA
	// port (packet-scoped kinds); Time − Inject is its network latency.
	Inject sim.Time
	// MsgID, MsgSeq and MsgPackets identify the packet's position in
	// its application message (packet-scoped kinds).
	MsgID              uint64
	MsgSeq, MsgPackets uint8
}

// Flow returns the event's flow identity.
func (e *Event) Flow() ib.FlowKey { return ib.FlowKey{Src: e.Src, Dst: e.Dst} }

// Consumer receives published events. Consume runs synchronously inside
// the simulation event that published; it must not mutate model state.
type Consumer interface {
	Consume(e Event)
}

// ConsumerFunc adapts a function to the Consumer interface.
type ConsumerFunc func(e Event)

// Consume implements Consumer.
func (f ConsumerFunc) Consume(e Event) { f(e) }

// Bus fans events out to subscribers, dispatching per kind. The zero
// value is usable; a nil *Bus is a valid always-disabled bus, which is
// how a simulation runs unobserved.
type Bus struct {
	mask uint32 // kinds with a stream subscriber
	want uint32 // mask, plus aggKinds once the aggregate tier is on
	reg  *Registry
	subs [NumKinds][]Consumer
}

// aggKinds are the kinds the aggregate tier counts.
const aggKinds = 1<<KindPacketSent | 1<<KindPacketDelivered | 1<<KindFECNMarked |
	1<<KindCreditStalled | 1<<KindQueueSampled | 1<<KindPacketDropped

// New returns an empty bus.
func New() *Bus { return &Bus{} }

// Subscribe registers c for the given kinds (all kinds when none are
// given). Subscription order is delivery order.
func (b *Bus) Subscribe(c Consumer, kinds ...Kind) {
	if len(kinds) == 0 {
		for k := Kind(0); k < NumKinds; k++ {
			kinds = append(kinds, k)
		}
	}
	for _, k := range kinds {
		b.subs[k] = append(b.subs[k], c)
		b.mask |= 1 << k
		b.want |= 1 << k
	}
}

// Registry returns the bus's aggregate tier, switching it on at the
// first call; every caller reads the same table.
func (b *Bus) Registry() *Registry {
	if b.reg == nil {
		b.reg = &Registry{tickAt: sim.MaxTime}
		b.want |= aggKinds
	}
	return b.reg
}

// Wants reports whether publishing kind k does anything — a subscriber
// listens for it or the aggregate tier counts it. Publishers with
// expensive preparation may use it to skip work; the standard helpers
// below already check it.
func (b *Bus) Wants(k Kind) bool { return b != nil && b.want&(1<<k) != 0 }

// Streams reports whether publishing kind k builds an Event, which only
// a stream subscriber makes it do.
func (b *Bus) Streams(k Kind) bool { return b != nil && b.mask&(1<<k) != 0 }

// Publish delivers e to the subscribers of its kind.
func (b *Bus) Publish(e Event) {
	for _, c := range b.subs[e.Kind] {
		c.Consume(e)
	}
}

// packet copies the identity fields of p into e.
func (e *Event) packet(p *ib.Packet) {
	e.PktID = p.ID
	e.Src, e.Dst = p.Src, p.Dst
	e.Type = p.Type
	e.VL = p.VL
	e.Bytes = p.WireBytes()
	e.FECN, e.BECN = p.FECN, p.BECN
	e.Hotspot = p.Hotspot
	e.Inject = p.InjectTime
	e.MsgID, e.MsgSeq, e.MsgPackets = p.MsgID, p.MsgSeq, p.MsgPackets
}

// PacketSent publishes a wire transmission at (node, port); sw selects
// the switch/host namespace for node.
func (b *Bus) PacketSent(t sim.Time, sw bool, node, port int, p *ib.Packet) {
	if b == nil || b.want&(1<<KindPacketSent) == 0 {
		return
	}
	if b.reg != nil && sw {
		c := b.reg.port(node, port)
		c.FwdPackets++
		if p.VL < MaxVLs {
			c.FwdBytesVL[p.VL] += uint64(p.WireBytes())
		}
	}
	if b.mask&(1<<KindPacketSent) == 0 {
		return
	}
	e := Event{Kind: KindPacketSent, Time: t, Switch: sw, Node: node, Port: port}
	e.packet(p)
	b.Publish(e)
}

// PacketDelivered publishes a sink consumption at host lid.
func (b *Bus) PacketDelivered(t sim.Time, lid ib.LID, p *ib.Packet) {
	if b == nil || b.want&(1<<KindPacketDelivered) == 0 {
		return
	}
	if r := b.reg; r != nil {
		r.touch(t)
		class, bytes := ClassControl, p.WireBytes()
		if p.Type == ib.DataPacket {
			// Payload, the goodput the paper's throughput plots use.
			class, bytes = ClassOther, bytes-ib.HeaderBytes
			if p.Hotspot {
				class = ClassHotspot
			}
		}
		r.Delivered[class] += int64(bytes)
	}
	if b.mask&(1<<KindPacketDelivered) == 0 {
		return
	}
	e := Event{Kind: KindPacketDelivered, Time: t, Node: int(lid)}
	e.packet(p)
	b.Publish(e)
}

// FECNMarked publishes a FECN mark of p at switch sw port out, with the
// queue depth and credit state that triggered it.
func (b *Bus) FECNMarked(t sim.Time, sw, out int, hostPort bool, p *ib.Packet, queued, credits int) {
	if b == nil || b.want&(1<<KindFECNMarked) == 0 {
		return
	}
	if b.reg != nil {
		c := b.reg.port(sw, out)
		c.FECNMarks++
		c.HostPort = c.HostPort || hostPort
	}
	if b.mask&(1<<KindFECNMarked) == 0 {
		return
	}
	e := Event{
		Kind: KindFECNMarked, Time: t, Switch: true, Node: sw, Port: out,
		HostPort: hostPort, QueuedBytes: queued, CreditBytes: credits,
	}
	e.packet(p)
	b.Publish(e)
}

// BECNReturned publishes the consumption of a BECN at source CA src,
// throttling flow src→dst.
func (b *Bus) BECNReturned(t sim.Time, src, dst ib.LID, p *ib.Packet) {
	if b == nil || b.mask&(1<<KindBECNReturned) == 0 {
		return
	}
	e := Event{Kind: KindBECNReturned, Time: t, Node: int(src), Src: src, Dst: dst}
	if p != nil {
		e.PktID, e.Type, e.VL = p.ID, p.Type, p.VL
		e.Bytes = p.WireBytes()
		e.FECN, e.BECN = p.FECN, p.BECN
	}
	b.Publish(e)
}

// CCTISample is one CCTI step. Publishers that find several steps in
// map order buffer them as samples and sort before publishing, so the
// event stream stays deterministic.
type CCTISample struct {
	Src, Dst ib.LID
	Old, New uint16
}

// CCTIChanged publishes a CCTI step of flow src→dst from old to new.
// dst is the CA table key: the destination LID at QP-level CC, or -1
// when CC operates per service level.
func (b *Bus) CCTIChanged(t sim.Time, src, dst ib.LID, old, new uint16) {
	if b == nil || b.mask&(1<<KindCCTIChanged) == 0 {
		return
	}
	b.Publish(Event{
		Kind: KindCCTIChanged, Time: t, Node: int(src), Src: src, Dst: dst,
		OldCCTI: old, NewCCTI: new,
	})
}

// CreditStalled publishes a failed grant: the transmitter at
// (node, port) held a packet of wire size need on vl but only credits
// bytes of downstream space.
func (b *Bus) CreditStalled(t sim.Time, sw bool, node, port int, vl ib.VL, credits, need int) {
	if b == nil || b.want&(1<<KindCreditStalled) == 0 {
		return
	}
	if r := b.reg; r != nil {
		r.touch(t)
		r.Stalls++
		if sw {
			r.port(node, port).CreditStalls++
		}
	}
	if b.mask&(1<<KindCreditStalled) == 0 {
		return
	}
	b.Publish(Event{
		Kind: KindCreditStalled, Time: t, Switch: sw, Node: node, Port: port,
		VL: vl, CreditBytes: credits, Bytes: need,
	})
}

// LinkDown publishes a transmitter going down at (node, port); sw
// selects the switch/host namespace for node.
func (b *Bus) LinkDown(t sim.Time, sw bool, node, port int) {
	if b == nil || b.mask&(1<<KindLinkDown) == 0 {
		return
	}
	b.Publish(Event{Kind: KindLinkDown, Time: t, Switch: sw, Node: node, Port: port})
}

// LinkUp publishes a transmitter coming back up at (node, port).
func (b *Bus) LinkUp(t sim.Time, sw bool, node, port int) {
	if b == nil || b.mask&(1<<KindLinkUp) == 0 {
		return
	}
	b.Publish(Event{Kind: KindLinkUp, Time: t, Switch: sw, Node: node, Port: port})
}

// PacketDropped publishes a fault-layer discard at transmitter
// (node, port). A nil p records a dropped credit update instead: vl and
// bytes describe the lost flow-control update and CreditBytes doubles as
// the credit marker.
func (b *Bus) PacketDropped(t sim.Time, sw bool, node, port int, p *ib.Packet, vl ib.VL, bytes int) {
	if b == nil || b.want&(1<<KindPacketDropped) == 0 {
		return
	}
	if r := b.reg; r != nil {
		r.touch(t)
		if sw {
			r.port(node, port).Dropped++
		}
	}
	if b.mask&(1<<KindPacketDropped) == 0 {
		return
	}
	e := Event{Kind: KindPacketDropped, Time: t, Switch: sw, Node: node, Port: port}
	if p != nil {
		e.packet(p)
	} else {
		e.VL, e.Bytes, e.CreditBytes = vl, bytes, bytes
	}
	b.Publish(e)
}

// MsgCompleted publishes the delivery of an application message's final
// packet at host lid. The message-boundary test lives here, after the
// mask gate, so an unobserved run pays only the standard disabled-bus
// check at the delivery site.
func (b *Bus) MsgCompleted(t sim.Time, lid ib.LID, p *ib.Packet) {
	if b == nil || b.mask&(1<<KindMsgCompleted) == 0 {
		return
	}
	if p.Type != ib.DataPacket || p.MsgSeq+1 != p.MsgPackets {
		return
	}
	e := Event{Kind: KindMsgCompleted, Time: t, Node: int(lid)}
	e.packet(p)
	b.Publish(e)
}

// QueueSampled publishes a switch output Port VL depth change.
func (b *Bus) QueueSampled(t sim.Time, sw, port int, hostPort bool, vl ib.VL, queued int) {
	if b == nil || b.want&(1<<KindQueueSampled) == 0 {
		return
	}
	if r := b.reg; r != nil {
		r.touch(t)
		c := r.port(sw, port)
		c.HostPort = c.HostPort || hostPort
		c.PeakQueuedBytes = max(c.PeakQueuedBytes, queued)
		if vl < MaxVLs {
			c.Depth += int32(queued) - c.vlDepth[vl]
			c.vlDepth[vl] = int32(queued)
			c.PeakDepth = max(c.PeakDepth, c.Depth)
		}
	}
	if b.mask&(1<<KindQueueSampled) == 0 {
		return
	}
	b.Publish(Event{
		Kind: KindQueueSampled, Time: t, Switch: true, Node: sw, Port: port,
		HostPort: hostPort, VL: vl, QueuedBytes: queued,
	})
}

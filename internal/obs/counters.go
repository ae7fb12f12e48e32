package obs

import (
	"fmt"

	"repro/internal/ib"
	"repro/internal/sim"
)

// PortKey addresses one switch output port.
type PortKey struct {
	Switch int
	Port   int
}

func (k PortKey) String() string { return fmt.Sprintf("sw%d.p%d", k.Switch, k.Port) }

// MaxVLs bounds the per-port lane arrays: the fabric carries at most 15
// data VLs (fabric.Config), VL 15 is management.
const MaxVLs = 16

// Traffic classes of Registry.Delivered.
const (
	ClassHotspot = iota // data payload addressed to the hotspot victim
	ClassOther          // all other data payload
	ClassControl        // CNP + ACK wire bytes
	NumClasses
)

// PortCounters is one switch output port's row of the bus's aggregate
// table. The fields a packet hop touches come first, so a single-VL
// fabric works within a row's first 128 bytes.
type PortCounters struct {
	// Depth is the sum of every VL's last sampled depth, PeakDepth its
	// high-water mark.
	Depth, PeakDepth int32
	// HostPort reports whether the port faces an HCA (learned from the
	// first event that says so).
	HostPort bool
	seen     bool
	// PeakQueuedBytes is the highest queued-byte depth observed on any
	// single VL of the port.
	PeakQueuedBytes int
	// FwdPackets counts packets put on the wire.
	FwdPackets uint64
	// CreditStalls counts failed grant attempts for lack of downstream
	// credits.
	CreditStalls uint64
	// FECNMarks counts data packets FECN-marked at this port.
	FECNMarks uint64
	// Dropped counts packets and credit updates the fault layer
	// discarded after leaving this port.
	Dropped uint64
	vlDepth [MaxVLs]int32
	// FwdBytesVL counts wire bytes forwarded per VL.
	FwdBytesVL [MaxVLs]uint64
}

// PortTable is a dense [switch][port] table of per-port state. Switch
// and port numbers are small dense integers, so a lookup on the publish
// path is two bounds checks where a map would hash a struct key. The
// table starts empty and grows to whatever index is named first — rows
// to the highest switch, each row to its own highest port — so ports
// may appear in any order and unnamed ones hold the zero T.
type PortTable[T any] [][]T

// At returns the entry of (sw, port), growing the table to hold it. The
// pointer is good until the next At that grows the same row.
func (t *PortTable[T]) At(sw, port int) *T {
	if sw >= len(*t) {
		*t = append(*t, make([][]T, sw+1-len(*t))...)
	}
	row := &(*t)[sw]
	if port >= len(*row) {
		*row = append(*row, make([]T, port+1-len(*row))...)
	}
	return &(*row)[port]
}

// Each calls f for every entry the table has grown to hold, in (switch,
// port) order.
func (t PortTable[T]) Each(f func(sw, port int, v *T)) {
	for sw, row := range t {
		for port := range row {
			f(sw, port, &row[port])
		}
	}
}

// Registry is the bus's aggregate tier: per-switch-port counters, a few
// run totals and message-completion spans that the publish helpers
// update in place — no Event is built and no consumer called for them.
// Bus.Registry switches it on. It is written on the simulation
// goroutine and read there; a reader on another goroutine works from
// what it copied at a tick or a span.
type Registry struct {
	ports PortTable[PortCounters]
	// Delivered is the cumulative bytes host sinks consumed per traffic
	// class.
	Delivered [NumClasses]int64
	// Stalls counts every failed grant, host transmitters included.
	Stalls uint64
	// Last is the time of the latest queue sample, stall, delivery or
	// drop.
	Last sim.Time

	tickAt sim.Time
	onTick func(sim.Time) sim.Time

	// open holds the first packet's InjectTime of every message whose
	// MsgSeq-0 packet was delivered and whose last was not, keyed by
	// msgKey; only a span reader makes the table fill.
	open   openTable
	onSpan func(sim.Duration)
}

// SetTick installs the bus's one time-driven reader. The first queue
// sample, stall, delivery or drop published at a t beyond the boundary
// fn last returned calls fn(t) before the table takes the update, so fn
// reads the table as it stood at the boundary; the first such event
// always ticks.
func (r *Registry) SetTick(fn func(t sim.Time) (next sim.Time)) {
	if r.onTick != nil {
		panic("obs: the bus already has a tick reader")
	}
	r.onTick, r.tickAt = fn, -1
}

// SetSpan installs the bus's one message-completion reader. From then
// on the delivery of a message's final data packet at t calls
// fn(t − start), where start is the InjectTime of the message's MsgSeq-0
// packet, or the final packet's own InjectTime when that packet's
// delivery was never seen (exact for a one-packet message, a lower
// bound otherwise). fn runs after the delivery ticked and was counted.
func (r *Registry) SetSpan(fn func(span sim.Duration)) {
	if r.onSpan != nil {
		panic("obs: the bus already has a span reader")
	}
	r.onSpan = fn
}

// msgKey packs a message's identity into one word: the source LID in
// the top 16 bits, the message id below.
func msgKey(p *ib.Packet) uint64 {
	if p.MsgID >= 1<<48 || uint32(p.Src) >= 1<<16 {
		panic(fmt.Sprintf("obs: message %d from LID %d overflows the span key", p.MsgID, p.Src))
	}
	return uint64(p.Src)<<48 | p.MsgID
}

// span opens a message at its MsgSeq-0 data packet and closes it at its
// last, handing the span to the reader.
func (r *Registry) span(t sim.Time, p *ib.Packet) {
	first, last := p.MsgSeq == 0, p.MsgSeq+1 == p.MsgPackets
	start := p.InjectTime
	switch {
	case first && last:
	case first:
		r.open.put(msgKey(p), start)
		return
	case last:
		if s, ok := r.open.take(msgKey(p)); ok {
			start = s
		}
	default:
		return
	}
	r.onSpan(t.Sub(start))
}

func (r *Registry) touch(t sim.Time) {
	if t > r.tickAt {
		r.tickAt = r.onTick(t)
	}
	r.Last = t
}

func (r *Registry) port(sw, port int) *PortCounters {
	c := r.ports.At(sw, port)
	c.seen = true
	return c
}

// Port returns the counters of (sw, port), or nil when the port never
// produced an event. The pointer is into the live table.
func (r *Registry) Port(sw, port int) *PortCounters {
	if sw < 0 || sw >= len(r.ports) || port < 0 || port >= len(r.ports[sw]) || !r.ports[sw][port].seen {
		return nil
	}
	return &r.ports[sw][port]
}

// Each calls f for every port that produced an event, in (switch, port)
// order.
func (r *Registry) Each(f func(PortKey, *PortCounters)) {
	r.ports.Each(func(sw, port int, c *PortCounters) {
		if c.seen {
			f(PortKey{Switch: sw, Port: port}, c)
		}
	})
}

// Ports returns the keys of every port that produced an event in
// (switch, port) order.
func (r *Registry) Ports() []PortKey {
	var out []PortKey
	r.Each(func(k PortKey, _ *PortCounters) { out = append(out, k) })
	return out
}

// Totals sums the counters across all ports.
func (r *Registry) Totals() (marks, stalls, fwdPackets uint64, fwdBytes uint64) {
	r.Each(func(_ PortKey, c *PortCounters) {
		marks += c.FECNMarks
		stalls += c.CreditStalls
		fwdPackets += c.FwdPackets
		for _, b := range c.FwdBytesVL {
			fwdBytes += b
		}
	})
	return
}

// HottestPort returns the port with the most FECN marks (ties broken by
// key order), or a zero key and nil when nothing was marked.
func (r *Registry) HottestPort() (PortKey, *PortCounters) {
	var bestK PortKey
	var best *PortCounters
	r.Each(func(k PortKey, c *PortCounters) {
		if c.FECNMarks > 0 && (best == nil || c.FECNMarks > best.FECNMarks) {
			bestK, best = k, c
		}
	})
	return bestK, best
}

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
// table. A row is four cache lines, and on a one-VL fabric everything a
// departure or an arrival touches sits in its second: the counters a
// hop does not touch lead, the per-lane depths follow stored last lane
// first so that lane 0's ends the first line's stretch, then the scalars
// a hop updates, then FwdBytesVL, whose lane 0 closes the second line
// (TestPortCountersLayout pins this).
type PortCounters struct {
	// CreditStalls counts failed grant attempts for lack of downstream
	// credits.
	CreditStalls uint64
	// FECNMarks counts data packets FECN-marked at this port.
	FECNMarks uint64
	// Dropped counts packets and credit updates the fault layer
	// discarded after leaving this port.
	Dropped uint64
	// vlDepth is each lane's last sampled depth, lane vl at
	// vlDepth[MaxVLs-1-vl].
	vlDepth [MaxVLs]int32
	// Depth is the sum of every VL's last sampled depth, PeakDepth its
	// high-water mark.
	Depth, PeakDepth int32
	// PeakQueuedBytes is the highest queued-byte depth observed on any
	// single VL of the port.
	PeakQueuedBytes int
	// FwdPackets counts packets put on the wire.
	FwdPackets uint64
	// HostPort reports whether the port faces an HCA (learned from the
	// first event that says so).
	HostPort bool
	seen     bool
	// host is the HCA-facing flag the fabric declared for the port
	// (Bus.SetLinks); the link-addressed helpers learn HostPort from it.
	host bool
	// FwdBytesVL counts wire bytes forwarded per VL.
	FwdBytesVL [MaxVLs]uint64
	_          [8]byte
}

// sample takes a queue sample: lane vl of the port now holds queued
// bytes.
func (c *PortCounters) sample(hostPort bool, vl ib.VL, queued int) {
	c.seen = true
	c.HostPort = c.HostPort || hostPort
	c.PeakQueuedBytes = max(c.PeakQueuedBytes, queued)
	if vl < MaxVLs {
		d := &c.vlDepth[MaxVLs-1-vl]
		c.Depth += int32(queued) - *d
		*d = int32(queued)
		c.PeakDepth = max(c.PeakDepth, c.Depth)
	}
}

// sent counts p put on the wire.
func (c *PortCounters) sent(p *ib.Packet) {
	c.seen = true
	c.FwdPackets++
	if p.VL < MaxVLs {
		c.FwdBytesVL[p.VL] += uint64(p.WireBytes())
	}
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

// NewPortTable returns a zero table shaped like r's declared ports —
// a row per switch, each as long as its highest declared port needs —
// so a table filled from r's rows never grows for a declared port.
func NewPortTable[T any](r *Registry) PortTable[T] {
	ports := make([]int, len(r.index))
	for sw, row := range r.index {
		ports[sw] = len(row)
	}
	return shapedTable[T](ports)
}

// shapedTable returns a table whose row sw holds ports[sw] entries, the
// rows carved from one slab.
func shapedTable[T any](ports []int) PortTable[T] {
	total := 0
	for _, n := range ports {
		total += n
	}
	cells := make([]T, total)
	t := make(PortTable[T], len(ports))
	for sw, n := range ports {
		t[sw], cells = cells[:n:n], cells[n:]
	}
	return t
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
//
// The port rows are one flat slice. The first rows are the fabric's
// transmitters in its dense link-index order (Bus.SetLinks sizes them,
// once; a host send port's row is never counted), so a link-addressed
// publish is one index; a port a publisher names by (switch, port)
// that the fabric did not declare gets a row appended on first sight.
// index maps (switch, port) to row + 1 for the (switch, port) helpers
// and the readers, which therefore walk ports in (switch, port) order
// however the rows lie.
type Registry struct {
	rows  []PortCounters
	index PortTable[int32]
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

// layout sizes the table to the fabric's transmitters: one row per
// link, and an index whose rows are carved from one slab at the length
// their highest declared port needs.
func (r *Registry) layout(links []Link) {
	if len(r.rows) > 0 {
		panic("obs: links declared after ports were counted")
	}
	r.rows = make([]PortCounters, len(links))
	var ports []int // per switch: highest declared port + 1
	for _, l := range links {
		if l.Switch {
			if sw := l.Key.Switch; sw >= len(ports) {
				ports = append(ports, make([]int, sw+1-len(ports))...)
			}
			ports[l.Key.Switch] = max(ports[l.Key.Switch], l.Key.Port+1)
		}
	}
	r.index = shapedTable[int32](ports)
	for i, l := range links {
		if l.Switch {
			r.index[l.Key.Switch][l.Key.Port] = int32(i) + 1
			r.rows[i].host = l.HostPort
		}
	}
}

// port returns the row of (sw, port), appending one for a port the
// fabric did not declare, and marks it seen.
func (r *Registry) port(sw, port int) *PortCounters {
	i := r.index.At(sw, port)
	if *i == 0 {
		r.rows = append(r.rows, PortCounters{})
		*i = int32(len(r.rows))
	}
	c := &r.rows[*i-1]
	c.seen = true
	return c
}

// Port returns the counters of (sw, port), or nil when the port never
// produced an event. The pointer is into the live table, good until a
// publish names a port the fabric did not declare.
func (r *Registry) Port(sw, port int) *PortCounters {
	if sw < 0 || sw >= len(r.index) || port < 0 || port >= len(r.index[sw]) {
		return nil
	}
	if i := r.index[sw][port]; i > 0 && r.rows[i-1].seen {
		return &r.rows[i-1]
	}
	return nil
}

// Each calls f for every port that produced an event, in (switch, port)
// order.
func (r *Registry) Each(f func(PortKey, *PortCounters)) {
	r.index.Each(func(sw, port int, i *int32) {
		if *i > 0 && r.rows[*i-1].seen {
			f(PortKey{Switch: sw, Port: port}, &r.rows[*i-1])
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

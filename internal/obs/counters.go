package obs

import "fmt"

// PortKey addresses one switch output port.
type PortKey struct {
	Switch int
	Port   int
}

func (k PortKey) String() string { return fmt.Sprintf("sw%d.p%d", k.Switch, k.Port) }

// PortCounters accumulates the flight-recorder counters of one switch
// output port.
type PortCounters struct {
	// FECNMarks counts data packets FECN-marked at this port.
	FECNMarks uint64
	// CreditStalls counts failed grant attempts for lack of downstream
	// credits.
	CreditStalls uint64
	// PeakQueuedBytes is the highest queued-byte depth observed on any
	// VL of the port.
	PeakQueuedBytes int
	// FwdPackets counts packets put on the wire.
	FwdPackets uint64
	// Dropped counts packets and credit updates the fault layer
	// discarded after leaving this port.
	Dropped uint64
	// FwdBytesVL counts wire bytes forwarded per VL.
	FwdBytesVL []uint64
	// HostPort reports whether the port faces an HCA (learned from the
	// first event that says so).
	HostPort bool
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

// Registry is a bus consumer maintaining per-switch-port counters. Ports
// materialize lazily on their first event, so an idle port costs a nil
// pointer. Subscribe it with Attach.
type Registry struct {
	numVLs int
	// ports holds nil for ports that never produced an event.
	ports PortTable[*PortCounters]
}

// NewRegistry returns a registry for fabrics with numVLs virtual lanes.
func NewRegistry(numVLs int) *Registry {
	if numVLs < 1 {
		numVLs = 1
	}
	return &Registry{numVLs: numVLs}
}

// Attach subscribes the registry to the kinds it consumes.
func (r *Registry) Attach(b *Bus) {
	b.Subscribe(r, KindPacketSent, KindFECNMarked, KindCreditStalled, KindQueueSampled, KindPacketDropped)
}

func (r *Registry) port(sw, port int, hostPort bool) *PortCounters {
	slot := r.ports.At(sw, port)
	c := *slot
	if c == nil {
		c = &PortCounters{FwdBytesVL: make([]uint64, r.numVLs)}
		*slot = c
	}
	if hostPort {
		c.HostPort = true
	}
	return c
}

// Consume implements Consumer.
func (r *Registry) Consume(e Event) {
	if !e.Switch {
		return // HCA-side events carry no switch port
	}
	switch e.Kind {
	case KindPacketSent:
		c := r.port(e.Node, e.Port, false)
		c.FwdPackets++
		if int(e.VL) < len(c.FwdBytesVL) {
			c.FwdBytesVL[e.VL] += uint64(e.Bytes)
		}
	case KindFECNMarked:
		r.port(e.Node, e.Port, e.HostPort).FECNMarks++
	case KindCreditStalled:
		r.port(e.Node, e.Port, false).CreditStalls++
	case KindQueueSampled:
		c := r.port(e.Node, e.Port, e.HostPort)
		if e.QueuedBytes > c.PeakQueuedBytes {
			c.PeakQueuedBytes = e.QueuedBytes
		}
	case KindPacketDropped:
		r.port(e.Node, e.Port, false).Dropped++
	}
}

// Port returns the counters of (sw, port), or nil when the port never
// produced an event.
func (r *Registry) Port(sw, port int) *PortCounters {
	if sw < 0 || sw >= len(r.ports) || port < 0 || port >= len(r.ports[sw]) {
		return nil
	}
	return r.ports[sw][port]
}

// each calls f for every materialized port in (switch, port) order.
func (r *Registry) each(f func(PortKey, *PortCounters)) {
	r.ports.Each(func(sw, port int, c **PortCounters) {
		if *c != nil {
			f(PortKey{Switch: sw, Port: port}, *c)
		}
	})
}

// Ports returns the keys of every materialized port in (switch, port)
// order.
func (r *Registry) Ports() []PortKey {
	var out []PortKey
	r.each(func(k PortKey, _ *PortCounters) { out = append(out, k) })
	return out
}

// Totals sums the counters across all ports.
func (r *Registry) Totals() (marks, stalls, fwdPackets uint64, fwdBytes uint64) {
	r.each(func(_ PortKey, c *PortCounters) {
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
	r.each(func(k PortKey, c *PortCounters) {
		if c.FECNMarks > 0 && (best == nil || c.FECNMarks > best.FECNMarks) {
			bestK, best = k, c
		}
	})
	return bestK, best
}

var _ Consumer = (*Registry)(nil)

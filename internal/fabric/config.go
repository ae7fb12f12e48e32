// Package fabric implements the InfiniBand network model the study runs
// on: switches with virtual-output-queued input buffers and round-robin
// VL arbitration, HCAs with a rate-limited injection DMA and sink,
// full-duplex links, and credit-based link-level flow control. It mirrors
// the ibuf/obuf/vlarb/gen/sink module structure of the OMNeT++ model the
// paper describes, with hook points for the congestion-control manager
// (internal/cc) and the traffic generators (internal/traffic).
package fabric

import (
	"fmt"

	"repro/internal/ib"
	"repro/internal/sim"
)

// Config carries the fabric-level parameters. The defaults reproduce the
// calibration of the paper's simulator against Mellanox MTS3600 switches
// and PCIe v1.1 hosts (section IV).
type Config struct {
	// LinkRate is the data rate of every link (default 20 Gbit/s, 4x DDR).
	LinkRate sim.Rate
	// InjectionRate caps the host DMA feeding its send port
	// (default 13.5 Gbit/s, the PCIe v1.1-limited rate in the paper).
	InjectionRate sim.Rate
	// SinkRate caps host packet consumption (default 13.6 Gbit/s, the
	// calibrated end-node receive rate, slightly above injection).
	SinkRate sim.Rate

	// PropDelay is the per-link propagation delay.
	PropDelay sim.Duration
	// HopLatency is the fixed receive/forwarding pipeline latency added
	// per hop (switch port-to-port processing).
	HopLatency sim.Duration

	// NumVLs is the number of data virtual lanes carried end to end.
	// All the paper's experiments run on one data VL.
	NumVLs int

	// SwitchIbufBytes is the input-buffer capacity per switch port per
	// VL; it bounds the credits an upstream sender may hold.
	SwitchIbufBytes int
	// HostIbufBytes is the receive-buffer capacity per host per VL.
	HostIbufBytes int
	// HostObufBytes is the host's send staging buffer; the injection
	// DMA stalls when it is full (fabric backpressure reaches the
	// generator here).
	HostObufBytes int

	// CutThrough selects virtual cut-through forwarding (the paper's
	// mode); when false, store-and-forward timing is used.
	CutThrough bool

	// Check enables internal invariant assertions (used by tests;
	// costs a few percent of runtime).
	Check bool
}

// DefaultConfig returns the paper-calibrated fabric configuration.
func DefaultConfig() Config {
	return Config{
		LinkRate:        ib.DefaultLinkRate(),
		InjectionRate:   ib.DefaultInjectionRate(),
		SinkRate:        sim.Gbps(13.6),
		PropDelay:       10 * sim.Nanosecond,
		HopLatency:      100 * sim.Nanosecond,
		NumVLs:          1,
		SwitchIbufBytes: 16 << 10,
		HostIbufBytes:   16 << 10,
		HostObufBytes:   8 << 10,
		CutThrough:      true,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.LinkRate <= 0 || c.InjectionRate <= 0 || c.SinkRate <= 0:
		return fmt.Errorf("fabric: rates must be positive")
	case c.InjectionRate > c.LinkRate:
		return fmt.Errorf("fabric: injection rate above link rate")
	case c.NumVLs < 1 || c.NumVLs > 15:
		return fmt.Errorf("fabric: NumVLs %d out of range [1,15]", c.NumVLs)
	case c.SwitchIbufBytes < ib.MTU+ib.HeaderBytes:
		return fmt.Errorf("fabric: switch ibuf smaller than one packet")
	case c.HostIbufBytes < ib.MTU+ib.HeaderBytes:
		return fmt.Errorf("fabric: host ibuf smaller than one packet")
	case c.HostObufBytes < ib.MTU+ib.HeaderBytes:
		return fmt.Errorf("fabric: host obuf smaller than one packet")
	case c.PropDelay < 0 || c.HopLatency < 0:
		return fmt.Errorf("fabric: negative delays")
	}
	return nil
}

// maxWire is the largest packet the fabric will carry.
func (c *Config) maxWire() int { return ib.MTU + ib.HeaderBytes }

// PortVLState is a snapshot of a switch output Port VL handed to the
// congestion-control hook when a data packet departs. The CC manager uses
// it to evaluate the threshold and the root-vs-victim condition.
type PortVLState struct {
	// QueuedBytes is the total bytes still queued across all input VoQs
	// for this output port and VL, excluding the departing packet.
	QueuedBytes int
	// CreditBytes is the currently known downstream free space.
	CreditBytes int
	// CapacityBytes is the reference buffer capacity for the threshold
	// computation (one input buffer's VL capacity).
	CapacityBytes int
	// HostPort reports whether the port attaches an HCA (the spec's
	// Victim Mask is typically set on such ports).
	HostPort bool
}

// Hooks connects policy modules to the fabric. Any field may be nil.
type Hooks struct {
	// SwitchEnqueue fires when a data packet is routed into a switch
	// output port's VoQ; the state describes the queue it joins
	// (excluding itself). It may set the packet's FECN bit.
	SwitchEnqueue func(sw int, outPort int, pkt *ib.Packet, st PortVLState)
	// SwitchDeparture fires for every data packet granted to a switch
	// output port; it may set the packet's FECN bit.
	SwitchDeparture func(sw int, outPort int, pkt *ib.Packet, st PortVLState)
	// Deliver fires when a host sink consumes any packet.
	Deliver func(hostLID ib.LID, pkt *ib.Packet)
}

// Source supplies data packets to an HCA's send path. Implementations
// own the flow queues, the traffic-class budgets and the CC injection
// throttling; the HCA pulls whenever its DMA engine and staging buffer
// are free.
type Source interface {
	// Pull returns the next packet to inject, or nil if none is
	// currently eligible together with the earliest time one may become
	// eligible (sim.MaxTime if the source is exhausted or purely
	// reactive). Pull must not return a packet larger than the MTU.
	Pull(now sim.Time) (*ib.Packet, sim.Time)
}

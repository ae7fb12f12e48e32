// Package ib defines the InfiniBand-level data types shared by the fabric
// model: local identifiers, virtual lanes, packets and messages, and the
// architectural constants the paper's simulation uses (IB spec 1.2.1
// terminology throughout).
package ib

import (
	"fmt"

	"repro/internal/sim"
)

// LID is a local identifier addressing an end port within a subnet. The
// model assigns LIDs densely: end nodes first (0..N-1), then switches.
type LID int32

// NoLID marks an unset or invalid LID.
const NoLID LID = -1

// VL is a virtual lane number. The paper's experiments run all data
// traffic on a single data VL; the model nevertheless carries VLs
// end-to-end because the CC state machine is defined per (port, VL).
type VL uint8

// SL is a service level. The model maps SL n to VL n.
type SL uint8

// Architectural and calibration constants. Rates are the values the
// paper's simulator is tuned to (Mellanox MTS3600 / PCIe v1.1 hosts).
const (
	// MTU is the maximum transfer unit used in all experiments.
	MTU = 2048
	// MessageBytes is the application message size: two MTU packets.
	MessageBytes = 4096
	// CNPBytes is the size of an explicit congestion notification
	// packet carrying a BECN back to the source.
	CNPBytes = 64
	// HeaderBytes approximates LRH+BTH+CRC framing on the wire per
	// packet. It is accounted for in serialization time so that goodput
	// saturates slightly below line rate, as on hardware.
	HeaderBytes = 46
)

// DefaultLinkRate is the 4x DDR signalling data rate used in the paper.
func DefaultLinkRate() sim.Rate { return sim.Gbps(20) }

// DefaultInjectionRate is the maximum host injection rate (13.5 Gbit/s,
// limited by PCIe v1.1 protocol overhead in the calibration hardware).
func DefaultInjectionRate() sim.Rate { return sim.Gbps(13.5) }

// PacketType distinguishes the packet kinds the model carries.
type PacketType uint8

const (
	// DataPacket carries application payload and may be FECN-marked.
	DataPacket PacketType = iota
	// CNPPacket is an explicit congestion notification packet carrying
	// a BECN (the unconnected-transport notification path).
	CNPPacket
	// AckPacket is a reliable-connection acknowledgement; a BECN may
	// piggyback on it (the spec's other notification path).
	AckPacket
)

func (t PacketType) String() string {
	switch t {
	case DataPacket:
		return "data"
	case CNPPacket:
		return "cnp"
	case AckPacket:
		return "ack"
	default:
		return fmt.Sprintf("PacketType(%d)", uint8(t))
	}
}

// FlowKey identifies a flow for congestion-control purposes. The paper
// runs CC at the QP level; the generator model opens one QP per
// source/destination pair, so (Src, Dst) is the QP identity.
type FlowKey struct {
	Src LID
	Dst LID
}

func (k FlowKey) String() string { return fmt.Sprintf("%d->%d", k.Src, k.Dst) }

// Packet is a single IB packet in flight. Packets are allocated by the
// generators and passed by pointer through the fabric. Fields are
// ordered widest first so the struct, including the queue link, packs
// into 56 bytes and stays in the allocator's 64-byte class: one packet,
// one cache line.
type Packet struct {
	ID uint64
	// MsgID groups the packets of one application message.
	MsgID uint64
	// InjectTime is when the first byte entered the source HCA port.
	InjectTime sim.Time
	// PayloadBytes is the application payload carried (0 for CNPs'
	// logical payload; their wire size is CNPBytes).
	PayloadBytes int

	// Next is the intrusive FIFO link of the PacketQueue currently
	// holding the packet (nil at a queue's tail and outside any queue).
	// The single-owner lifecycle (pool.go) guarantees a packet sits in
	// at most one queue, so one link suffices. It is queue plumbing, not
	// packet state: checkpoints store queue order instead, and Reset
	// clears it.
	Next *Packet

	Src  LID
	Dst  LID
	Type PacketType
	SL   SL
	VL   VL

	// FECN and BECN are the explicit congestion notification bits.
	FECN bool
	BECN bool

	// Hotspot marks packets whose destination was chosen as the
	// generator's hotspot target; it exists purely for measurement.
	Hotspot bool

	// MsgSeq is the packet's index within its message.
	MsgSeq uint8
	// MsgPackets is the number of packets in the message.
	MsgPackets uint8
}

// WireBytes is the packet's size on the wire, including framing overhead.
func (p *Packet) WireBytes() int {
	if p.Type == CNPPacket || p.Type == AckPacket {
		return CNPBytes + HeaderBytes
	}
	return p.PayloadBytes + HeaderBytes
}

// Flow returns the packet's CC flow identity.
func (p *Packet) Flow() FlowKey { return FlowKey{Src: p.Src, Dst: p.Dst} }

func (p *Packet) String() string {
	return fmt.Sprintf("%s#%d %v sl%d vl%d %dB fecn=%v becn=%v",
		p.Type, p.ID, p.Flow(), p.SL, p.VL, p.WireBytes(), p.FECN, p.BECN)
}

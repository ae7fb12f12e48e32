// Package ckpt defines the versioned checkpoint format for crash-safe
// simulation runs: a schema-validated snapshot of the full mutable
// simulator state — kernel clock/sequence/event list, fabric custody,
// congestion-control state, traffic cursors, fault-injector state, RNG
// stream positions — from which core.Restore rebuilds a run whose
// continuation is byte-identical to never having stopped.
//
// The package sits below the model layers: it imports only sim and ib,
// and each model package (fabric, cc, traffic, fault, metrics) exports
// and restores its own state as either typed records or an opaque
// package-owned JSON blob. Pending events are serialized as
// (time, seq, kind, args) records; packets referenced by events and by
// custody sites are interned once in a shared packet table and referred
// to by 1-based index.
package ckpt

import (
	"encoding/json"
	"fmt"

	"repro/internal/ib"
	"repro/internal/sim"
)

// Version is the checkpoint schema version. Load rejects any other
// value: the format carries exact kernel state, so silently accepting a
// foreign layout would corrupt a continuation instead of failing it.
// Version 2 added the kernel's exec_seq and, per fabric transmitter,
// busy-until / tx-seq / armed / parked credits: a version-1 snapshot
// implies a pending serializer-done event for every busy link and none
// of the deferred credits, so it cannot be continued exactly. Version 3
// made the fabric's drop ledger unconditional: a version-2 snapshot of a
// faulted run written without the checker lacks it, and a continuation
// would balance the pool against drops it never counted.
const Version = 3

// EventRecord is one pending future-event-list entry. Kind names the
// action codec that owns it; the A/F/B/Pkt fields are that codec's
// positional arguments (documented at each codec). Records are stored
// in ascending (time, seq) order so restore re-inserts them without
// ever rewinding the timing-wheel cursor.
type EventRecord struct {
	T    int64  `json:"t"`
	Seq  uint64 `json:"q"`
	Kind string `json:"k"`

	A0 int64   `json:"a0,omitempty"`
	A1 int64   `json:"a1,omitempty"`
	A2 int64   `json:"a2,omitempty"`
	A3 int64   `json:"a3,omitempty"`
	F0 float64 `json:"f0,omitempty"`
	B0 bool    `json:"b0,omitempty"`
	B1 bool    `json:"b1,omitempty"`
	B2 bool    `json:"b2,omitempty"`
	// Pkt is a 1-based index into the snapshot's packet table; 0 means
	// no packet.
	Pkt int `json:"pkt,omitempty"`
}

// PacketRecord mirrors every model field of ib.Packet, so a restored
// packet is indistinguishable from the original to the model. The
// queue link (ib.Packet.Next) is deliberately absent: custody sites
// store queue order as reference lists and restore relinks from them.
type PacketRecord struct {
	ID           uint64   `json:"id"`
	Type         uint8    `json:"ty,omitempty"`
	Src          ib.LID   `json:"s"`
	Dst          ib.LID   `json:"d"`
	SL           uint8    `json:"sl,omitempty"`
	VL           uint8    `json:"vl,omitempty"`
	PayloadBytes int      `json:"pb,omitempty"`
	FECN         bool     `json:"fe,omitempty"`
	BECN         bool     `json:"be,omitempty"`
	Hotspot      bool     `json:"h,omitempty"`
	MsgID        uint64   `json:"mi,omitempty"`
	MsgSeq       uint8    `json:"ms,omitempty"`
	MsgPackets   uint8    `json:"mp,omitempty"`
	InjectTime   sim.Time `json:"it,omitempty"`
}

// PacketTable interns live packets during export and materializes them
// during restore. Indices are 1-based; 0 is the nil packet.
type PacketTable struct {
	recs []PacketRecord
	idx  map[*ib.Packet]int
	pkts []*ib.Packet
	// claimed marks restore-side packets a custody site already took.
	claimed []bool
}

// NewPacketTable returns an empty export-side table.
func NewPacketTable() *PacketTable {
	return &PacketTable{idx: make(map[*ib.Packet]int)}
}

// Ref interns p and returns its 1-based index (0 for nil). Interning is
// idempotent: every custody site and event referring to one packet gets
// the same index, so restore rebuilds the exact aliasing structure.
func (t *PacketTable) Ref(p *ib.Packet) int {
	if p == nil {
		return 0
	}
	if i, ok := t.idx[p]; ok {
		return i
	}
	t.recs = append(t.recs, PacketRecord{
		ID: p.ID, Type: uint8(p.Type), Src: p.Src, Dst: p.Dst,
		SL: uint8(p.SL), VL: uint8(p.VL), PayloadBytes: p.PayloadBytes,
		FECN: p.FECN, BECN: p.BECN, Hotspot: p.Hotspot,
		MsgID: p.MsgID, MsgSeq: p.MsgSeq, MsgPackets: p.MsgPackets,
		InjectTime: p.InjectTime,
	})
	t.idx[p] = len(t.recs)
	return len(t.recs)
}

// Records returns the interned packet records in index order.
func (t *PacketTable) Records() []PacketRecord { return t.recs }

// RestoreTable materializes every packet of a snapshot for the restore
// side. Packets are allocated directly — never through a pool — because
// the pool's traffic counters are restored wholesale from the snapshot.
func RestoreTable(recs []PacketRecord) *PacketTable {
	t := &PacketTable{recs: recs, pkts: make([]*ib.Packet, len(recs)), claimed: make([]bool, len(recs))}
	for i, r := range recs {
		t.pkts[i] = &ib.Packet{
			ID: r.ID, Type: ib.PacketType(r.Type), Src: r.Src, Dst: r.Dst,
			SL: ib.SL(r.SL), VL: ib.VL(r.VL), PayloadBytes: r.PayloadBytes,
			FECN: r.FECN, BECN: r.BECN, Hotspot: r.Hotspot,
			MsgID: r.MsgID, MsgSeq: r.MsgSeq, MsgPackets: r.MsgPackets,
			InjectTime: r.InjectTime,
		}
	}
	return t
}

// Claim hands the materialized packet for a 1-based index (nil for 0)
// to the one custody site or pending event that owns it. Packets have
// a single owner, so an index out of range or claimed twice means the
// snapshot is corrupt (the envelope CRC only vouches for the bytes, not
// for what wrote them) and is reported as an error.
func (t *PacketTable) Claim(i int) (*ib.Packet, error) {
	if i == 0 {
		return nil, nil
	}
	if i < 0 || i > len(t.pkts) {
		return nil, fmt.Errorf("ckpt: packet reference %d of %d", i, len(t.pkts))
	}
	if t.claimed[i-1] {
		return nil, fmt.Errorf("ckpt: packet %d claimed by two custody sites", i)
	}
	t.claimed[i-1] = true
	return t.pkts[i-1], nil
}

// Len returns the number of interned packets.
func (t *PacketTable) Len() int { return len(t.recs) }

// DigestState is the exported position of an obs.Digest attached to the
// run (optional; present only for signed runs).
type DigestState struct {
	Sum     uint64 `json:"sum"`
	Records uint64 `json:"records"`
}

// Snapshot is the complete checkpoint document. The Scenario blob (the
// run's full configuration) plus the mutable state below determine the
// continuation exactly; everything derivable from the scenario
// (topology, routing, wiring, RNG derivations made at build time) is
// rebuilt by core.Build rather than stored.
type Snapshot struct {
	Version int `json:"version"`

	// Scenario is the core.Scenario JSON the run was built from.
	Scenario json.RawMessage `json:"scenario"`

	Kernel sim.KernelState `json:"kernel"`
	Events []EventRecord   `json:"events"`
	Pkts   []PacketRecord  `json:"packets,omitempty"`

	// Fabric is fabric.State (typed custody/credit/link state).
	Fabric json.RawMessage `json:"fabric"`
	// Backend names the CC backend the CC blob belongs to ("" when CC
	// is off); CC is that backend's package-owned state blob.
	Backend string          `json:"backend,omitempty"`
	CC      json.RawMessage `json:"cc,omitempty"`
	// Traffic holds one generator state blob per node LID (null for
	// idle nodes).
	Traffic []json.RawMessage `json:"traffic,omitempty"`
	// Fault is the injector's state blob (absent without a fault plan).
	Fault json.RawMessage `json:"fault,omitempty"`
	// Metrics is the collector's state blob.
	Metrics json.RawMessage `json:"metrics,omitempty"`

	Digest *DigestState `json:"digest,omitempty"`
}

// Validate checks the snapshot's internal consistency: version, event
// ordering, and packet references. It is called by Load and again by
// core.Restore before any state is applied.
func (s *Snapshot) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("ckpt: snapshot %w", versionError(s.Version))
	}
	if len(s.Scenario) == 0 {
		return fmt.Errorf("ckpt: snapshot carries no scenario")
	}
	if len(s.Fabric) == 0 {
		return fmt.Errorf("ckpt: snapshot carries no fabric state")
	}
	if s.Kernel.ExecSeq > s.Kernel.Seq {
		return fmt.Errorf("ckpt: kernel position seq %d beyond next seq %d", s.Kernel.ExecSeq, s.Kernel.Seq)
	}
	var lastT int64
	var lastSeq uint64
	for i, e := range s.Events {
		if e.Kind == "" {
			return fmt.Errorf("ckpt: event %d has no kind", i)
		}
		if e.T < int64(s.Kernel.Now) {
			return fmt.Errorf("ckpt: event %d (%s) at %d before snapshot clock %d", i, e.Kind, e.T, int64(s.Kernel.Now))
		}
		if e.T == int64(s.Kernel.Now) && e.Seq < s.Kernel.ExecSeq {
			return fmt.Errorf("ckpt: event %d (%s) seq %d behind the kernel position (seq %d) at the snapshot clock", i, e.Kind, e.Seq, s.Kernel.ExecSeq)
		}
		if e.Seq >= s.Kernel.Seq {
			return fmt.Errorf("ckpt: event %d (%s) seq %d at or beyond next seq %d", i, e.Kind, e.Seq, s.Kernel.Seq)
		}
		if i > 0 && (e.T < lastT || (e.T == lastT && e.Seq <= lastSeq)) {
			return fmt.Errorf("ckpt: events out of (time, seq) order at %d", i)
		}
		lastT, lastSeq = e.T, e.Seq
		if e.Pkt < 0 || e.Pkt > len(s.Pkts) {
			return fmt.Errorf("ckpt: event %d (%s) references packet %d of %d", i, e.Kind, e.Pkt, len(s.Pkts))
		}
	}
	return nil
}

package traffic

import (
	"encoding/json"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/ib"
	"repro/internal/sim"
)

// streamState is one traffic class's generation cursor.
type streamState struct {
	Hotspot   bool  `json:"hotspot,omitempty"`
	Generated int64 `json:"generated"`
	Backlog   int   `json:"backlog"`
}

// flowState is one destination (QP) queue. Pkts are 1-based packet-table
// refs in queue order.
type flowState struct {
	Dst         int      `json:"dst"`
	Pkts        []int    `json:"pkts,omitempty"`
	NextAllowed sim.Time `json:"next_allowed,omitempty"`
}

// genState is the generator's full mutable state. Active preserves the
// round-robin order of the active list (dst per entry): the arbiter's
// lazy compaction makes that order part of the trajectory.
type genState struct {
	Streams   []streamState `json:"streams"`
	Flows     []flowState   `json:"flows,omitempty"`
	Active    []int         `json:"active,omitempty"`
	RR        int           `json:"rr,omitempty"`
	SLGate    sim.Time      `json:"sl_gate,omitempty"`
	NextMsgID uint64        `json:"next_msg_id,omitempty"`
	PktSeq    uint64        `json:"pkt_seq,omitempty"`
	RNG       [4]uint64     `json:"rng"`
}

// ExportState returns the generator's mutable state as a package-owned
// JSON blob, interning queued packets into tab. Flows are emitted in
// destination order; the active list's round-robin order is kept
// separately and exactly.
func (g *Generator) ExportState(tab *ckpt.PacketTable) ([]byte, error) {
	st := genState{
		Streams:   make([]streamState, len(g.streams)),
		RR:        g.rr,
		SLGate:    g.slGate,
		NextMsgID: g.nextMsgID,
		PktSeq:    g.pktSeq,
		RNG:       g.cfg.RNG.State(),
	}
	for i, s := range g.streams {
		st.Streams[i] = streamState{Hotspot: s.hotspot, Generated: s.generated, Backlog: s.backlog}
	}
	for dst, fl := range g.flows {
		if fl == nil {
			continue
		}
		fs := flowState{Dst: dst, NextAllowed: fl.nextAllowed}
		for _, p := range fl.q {
			fs.Pkts = append(fs.Pkts, tab.Ref(p))
		}
		st.Flows = append(st.Flows, fs)
	}
	for _, fl := range g.active {
		st.Active = append(st.Active, int(fl.dst))
	}
	return json.Marshal(&st)
}

// RestoreState overlays an exported blob onto a freshly built generator
// of the same config, resolving packet refs through tab.
func (g *Generator) RestoreState(blob []byte, tab *ckpt.PacketTable) error {
	var st genState
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("traffic: decoding generator state: %w", err)
	}
	if len(st.Streams) != len(g.streams) {
		return fmt.Errorf("traffic: state has %d streams, generator has %d", len(st.Streams), len(g.streams))
	}
	for i, ss := range st.Streams {
		s := g.streams[i]
		if s.hotspot != ss.Hotspot {
			return fmt.Errorf("traffic: stream %d hotspot mismatch (state %v)", i, ss.Hotspot)
		}
		s.generated = ss.Generated
		s.backlog = ss.Backlog
	}
	g.flows = make([]*flow, g.cfg.NumNodes)
	for _, fs := range st.Flows {
		if fs.Dst < 0 || fs.Dst >= len(g.flows) {
			return fmt.Errorf("traffic: flow to node %d of %d", fs.Dst, len(g.flows))
		}
		fl := &flow{dst: ib.LID(fs.Dst), q: make([]*ib.Packet, 0, g.flowCap), nextAllowed: fs.NextAllowed}
		for _, ref := range fs.Pkts {
			p, err := tab.Claim(ref)
			if err != nil {
				return fmt.Errorf("traffic: flow %d: %w", fs.Dst, err)
			}
			if p == nil {
				return fmt.Errorf("traffic: flow %d queues a nil packet", fs.Dst)
			}
			fl.q = append(fl.q, p)
		}
		g.flows[fs.Dst] = fl
	}
	g.active = g.active[:0]
	for _, dst := range st.Active {
		if dst < 0 || dst >= len(g.flows) || g.flows[dst] == nil {
			return fmt.Errorf("traffic: active list references unknown flow %d", dst)
		}
		g.active = append(g.active, g.flows[dst])
	}
	g.rr = st.RR
	g.slGate = st.SLGate
	g.nextMsgID = st.NextMsgID
	g.pktSeq = st.PktSeq
	g.cfg.RNG.SetState(st.RNG)
	return nil
}

package traffic

import (
	"encoding/json"
	"fmt"
	"sort"

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
// JSON blob, interning queued packets into tab. Only live flows are
// emitted, in destination order, so the blob does not depend on which
// slot a flow happens to occupy; the active list's round-robin order is
// kept separately and exactly.
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
	var live []int
	for i := range g.slots {
		if g.slots[i].live(g.now) {
			live = append(live, i)
		}
	}
	sort.Slice(live, func(a, b int) bool { return g.dsts[live[a]] < g.dsts[live[b]] })
	for _, i := range live {
		fl := &g.slots[i]
		fs := flowState{Dst: int(g.dsts[i])}
		if fl.nextAllowed.After(g.now) {
			// An expired gate is no gate; writing it would make the blob
			// depend on which slot the flow happened to land in.
			fs.NextAllowed = fl.nextAllowed
		}
		for p := fl.q.Peek(); p != nil; p = p.Next {
			fs.Pkts = append(fs.Pkts, tab.Ref(p))
		}
		st.Flows = append(st.Flows, fs)
	}
	for _, idx := range g.active {
		st.Active = append(st.Active, int(g.dsts[idx]))
	}
	return json.Marshal(&st)
}

// RestoreState overlays an exported blob onto a freshly built generator
// of the same config, resolving packet refs through tab. The blob is
// not trusted: anything a generator of this config could not have
// exported is an error naming the field.
func (g *Generator) RestoreState(blob []byte, tab *ckpt.PacketTable) error {
	var st genState
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("traffic: decoding generator state: %w", err)
	}
	if len(st.Streams) != len(g.streams) {
		return fmt.Errorf("traffic: state has %d streams, generator has %d", len(st.Streams), len(g.streams))
	}
	for i, ss := range st.Streams {
		s := &g.streams[i]
		switch {
		case s.hotspot != ss.Hotspot:
			return fmt.Errorf("traffic: stream %d hotspot mismatch (state %v)", i, ss.Hotspot)
		case ss.Generated < 0:
			return fmt.Errorf("traffic: stream %d generated = %d", i, ss.Generated)
		case ss.Backlog < 0 || ss.Backlog > g.cfg.BacklogCap:
			return fmt.Errorf("traffic: stream %d backlog = %d, cap %d", i, ss.Backlog, g.cfg.BacklogCap)
		}
		s.generated = ss.Generated
		s.backlog = ss.Backlog
	}
	g.dsts, g.slots, g.hand = g.dsts[:0], g.slots[:0], 0
	for _, fs := range st.Flows {
		switch {
		case fs.Dst < 0 || fs.Dst >= g.cfg.NumNodes || ib.LID(fs.Dst) == g.cfg.LID:
			return fmt.Errorf("traffic: flow dst %d (node %d of %d)", fs.Dst, g.cfg.LID, g.cfg.NumNodes)
		case g.findSlot(ib.LID(fs.Dst)) >= 0:
			return fmt.Errorf("traffic: flow dst %d listed twice", fs.Dst)
		case len(fs.Pkts) > g.flowCap:
			return fmt.Errorf("traffic: flow %d queues %d pkts, cap %d", fs.Dst, len(fs.Pkts), g.flowCap)
		}
		fl := flowSlot{nextAllowed: fs.NextAllowed}
		for _, ref := range fs.Pkts {
			p, err := tab.Claim(ref)
			if err != nil {
				return fmt.Errorf("traffic: flow %d: %w", fs.Dst, err)
			}
			if p == nil {
				return fmt.Errorf("traffic: flow %d queues a nil packet", fs.Dst)
			}
			if p.Src != g.cfg.LID || p.Dst != ib.LID(fs.Dst) {
				return fmt.Errorf("traffic: flow %d pkts holds packet %v", fs.Dst, p)
			}
			fl.q.Push(p)
		}
		g.dsts = append(g.dsts, ib.LID(fs.Dst))
		g.slots = append(g.slots, fl)
	}
	g.active = g.active[:0]
	for _, dst := range st.Active {
		idx := g.findSlot(ib.LID(dst))
		if idx < 0 {
			return fmt.Errorf("traffic: active list references unknown flow %d", dst)
		}
		g.active = append(g.active, int32(idx))
		g.slots[idx].refs++
	}
	if st.RR < 0 || st.RR >= max(1, len(g.active)) {
		return fmt.Errorf("traffic: rr = %d with %d active flows", st.RR, len(g.active))
	}
	if st.RNG == [4]uint64{} {
		return fmt.Errorf("traffic: rng state is all zero")
	}
	g.rr = st.RR
	g.slGate = st.SLGate
	g.nextMsgID = st.NextMsgID
	g.pktSeq = st.PktSeq
	g.cfg.RNG.SetState(st.RNG)
	return nil
}

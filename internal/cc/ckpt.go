package cc

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/ib"
	"repro/internal/sim"
)

// Checkpointable is the optional backend extension the checkpoint layer
// uses: a backend that holds mutable state or schedules its own events
// exports both here. Stateless backends (nocc, oracle — immutable share
// tables, no timers) simply do not implement it and need nothing saved.
type Checkpointable interface {
	// ExportState returns the backend's mutable state as a
	// package-owned JSON blob.
	ExportState() ([]byte, error)
	// RestoreState overlays an exported blob onto a freshly built
	// backend of the same scenario.
	RestoreState([]byte) error
	// EncodeAction maps a pending event action owned by this backend to
	// a checkpoint record; ok is false for foreign actions.
	EncodeAction(a sim.Action) (rec ckpt.EventRecord, ok bool)
	// DecodeAction rebuilds an action from a record of this backend's
	// kind; attach re-links any held event handle (the CA timer slots).
	DecodeAction(rec ckpt.EventRecord) (act sim.Action, attach func(*sim.Event), ok bool, err error)
}

// Checkpoint action kinds.
const (
	kindCCTick  = "ccTick"
	kindRCMTick = "rcmTick"
)

// mgrFlowState is one throttled flow in the manager's export. Key is
// the CA table key (destination LID, or -1 at SL level).
type mgrFlowState struct {
	Key  int    `json:"key"`
	CCTI uint16 `json:"ccti"`
}

type mgrCAState struct {
	Flows []mgrFlowState `json:"flows,omitempty"`
	// FECNPending lists remote sources with a FECN remembered for the
	// in-progress message (BECNOnACK mode).
	FECNPending []int `json:"fecn_pending,omitempty"`
}

type mgrState struct {
	CAs   []mgrCAState `json:"cas"`
	Mark  [][]uint16   `json:"mark"`
	Stats Stats        `json:"stats"`
}

// ExportState implements Checkpointable for the classic IB CCA manager.
// Maps are emitted sorted so the blob is deterministic for a given
// state (restore does not depend on the order).
func (m *Manager) ExportState() ([]byte, error) {
	st := mgrState{CAs: make([]mgrCAState, len(m.ca)), Mark: m.mark, Stats: m.stats}
	for i := range m.ca {
		ca := &m.ca[i]
		cs := &st.CAs[i]
		for _, fl := range ca.flows {
			cs.Flows = append(cs.Flows, mgrFlowState{Key: int(fl.key), CCTI: fl.ccti})
		}
		sort.Slice(cs.Flows, func(a, b int) bool { return cs.Flows[a].Key < cs.Flows[b].Key })
		for src, pend := range ca.fecnPending {
			if pend {
				cs.FECNPending = append(cs.FECNPending, int(src))
			}
		}
		sort.Ints(cs.FECNPending)
	}
	return json.Marshal(&st)
}

// RestoreState implements Checkpointable.
func (m *Manager) RestoreState(blob []byte) error {
	var st mgrState
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("cc: decoding manager state: %w", err)
	}
	if len(st.CAs) != len(m.ca) || len(st.Mark) != len(m.mark) {
		return fmt.Errorf("cc: manager state shape %d CAs/%d switches, want %d/%d",
			len(st.CAs), len(st.Mark), len(m.ca), len(m.mark))
	}
	for i := range m.mark {
		if len(st.Mark[i]) != len(m.mark[i]) {
			return fmt.Errorf("cc: manager mark table %d length %d, want %d", i, len(st.Mark[i]), len(m.mark[i]))
		}
		copy(m.mark[i], st.Mark[i])
	}
	for i := range m.ca {
		ca := &m.ca[i]
		ca.flows = ca.flows[:0]
		for _, fs := range st.CAs[i].Flows {
			if ca.find(ib.LID(fs.Key)) >= 0 {
				return fmt.Errorf("cc: ca %d lists flow key %d twice", i, fs.Key)
			}
			ca.flows = append(ca.flows, caFlow{key: ib.LID(fs.Key), ccti: fs.CCTI})
		}
		ca.fecnPending = nil
		if pend := st.CAs[i].FECNPending; len(pend) > 0 {
			ca.fecnPending = make(map[ib.LID]bool, len(pend))
			for _, src := range pend {
				ca.fecnPending[ib.LID(src)] = true
			}
		}
		ca.timer = nil // re-linked by the tick event's decode, if pending
	}
	m.stats = st.Stats
	return nil
}

// EncodeAction implements Checkpointable (kind ccTick, A0 = CA LID).
func (m *Manager) EncodeAction(a sim.Action) (ckpt.EventRecord, bool) {
	if t, ok := a.(*caTickAct); ok && t.m == m {
		return ckpt.EventRecord{Kind: kindCCTick, A0: int64(t.src)}, true
	}
	return ckpt.EventRecord{}, false
}

// DecodeAction implements Checkpointable.
func (m *Manager) DecodeAction(rec ckpt.EventRecord) (sim.Action, func(*sim.Event), bool, error) {
	if rec.Kind != kindCCTick {
		return nil, nil, false, nil
	}
	if rec.A0 < 0 || int(rec.A0) >= len(m.ca) {
		return nil, nil, true, fmt.Errorf("cc: checkpoint references CA %d of %d", rec.A0, len(m.ca))
	}
	ca := &m.ca[rec.A0]
	if ca.tick == nil {
		ca.tick = &caTickAct{m: m, src: ib.LID(rec.A0)}
	}
	return ca.tick, func(e *sim.Event) { ca.timer = e }, true, nil
}

var _ Checkpointable = (*Manager)(nil)

// rcmFlowState is one rate-limited flow in the RCM export.
type rcmFlowState struct {
	Dst   int      `json:"dst"`
	RC    sim.Rate `json:"rc"`
	RT    sim.Rate `json:"rt"`
	Alpha float64  `json:"alpha"`
	Ticks int      `json:"ticks"`
}

type rcmCAState struct {
	Flows []rcmFlowState `json:"flows,omitempty"`
}

type rcmState struct {
	CAs   []rcmCAState `json:"cas"`
	Acc   [][]float64  `json:"acc"`
	Stats Stats        `json:"stats"`
}

// ExportState implements Checkpointable for the DCQCN-style backend.
func (r *RCM) ExportState() ([]byte, error) {
	st := rcmState{CAs: make([]rcmCAState, len(r.ca)), Acc: r.acc, Stats: r.stats}
	for i := range r.ca {
		cs := &st.CAs[i]
		for dst, fl := range r.ca[i].flows {
			cs.Flows = append(cs.Flows, rcmFlowState{
				Dst: int(dst), RC: fl.rc, RT: fl.rt, Alpha: fl.alpha, Ticks: fl.ticks,
			})
		}
		sort.Slice(cs.Flows, func(a, b int) bool { return cs.Flows[a].Dst < cs.Flows[b].Dst })
	}
	return json.Marshal(&st)
}

// RestoreState implements Checkpointable.
func (r *RCM) RestoreState(blob []byte) error {
	var st rcmState
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("cc: decoding rcm state: %w", err)
	}
	if len(st.CAs) != len(r.ca) || len(st.Acc) != len(r.acc) {
		return fmt.Errorf("cc: rcm state shape %d CAs/%d switches, want %d/%d",
			len(st.CAs), len(st.Acc), len(r.ca), len(r.acc))
	}
	for i := range r.acc {
		if len(st.Acc[i]) != len(r.acc[i]) {
			return fmt.Errorf("cc: rcm accumulator table %d length %d, want %d", i, len(st.Acc[i]), len(r.acc[i]))
		}
		copy(r.acc[i], st.Acc[i])
	}
	for i := range r.ca {
		ca := &r.ca[i]
		ca.flows = make(map[ib.LID]*rcmFlow, len(st.CAs[i].Flows))
		for _, fs := range st.CAs[i].Flows {
			ca.flows[ib.LID(fs.Dst)] = &rcmFlow{rc: fs.RC, rt: fs.RT, alpha: fs.Alpha, ticks: fs.Ticks}
		}
		ca.timer = nil
	}
	r.stats = st.Stats
	return nil
}

// EncodeAction implements Checkpointable (kind rcmTick, A0 = CA LID).
func (r *RCM) EncodeAction(a sim.Action) (ckpt.EventRecord, bool) {
	if t, ok := a.(*rcmTickAct); ok && t.r == r {
		return ckpt.EventRecord{Kind: kindRCMTick, A0: int64(t.src)}, true
	}
	return ckpt.EventRecord{}, false
}

// DecodeAction implements Checkpointable.
func (r *RCM) DecodeAction(rec ckpt.EventRecord) (sim.Action, func(*sim.Event), bool, error) {
	if rec.Kind != kindRCMTick {
		return nil, nil, false, nil
	}
	if rec.A0 < 0 || int(rec.A0) >= len(r.ca) {
		return nil, nil, true, fmt.Errorf("cc: checkpoint references rcm CA %d of %d", rec.A0, len(r.ca))
	}
	ca := &r.ca[rec.A0]
	if ca.tick == nil {
		ca.tick = &rcmTickAct{r: r, src: ib.LID(rec.A0)}
	}
	return ca.tick, func(e *sim.Event) { ca.timer = e }, true, nil
}

var _ Checkpointable = (*RCM)(nil)

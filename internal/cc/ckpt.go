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

// kindCCTick is the checkpoint action kind of the ibcc CA timer.
const kindCCTick = "ccTick"

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

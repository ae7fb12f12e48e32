package telemetry

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
)

// HubSnapshot is the sweep-level telemetry view: cross-run aggregates
// plus one run's series, the live one while the sweep runs.
type HubSnapshot struct {
	// Runs counts finished runs folded into the aggregates; Active
	// counts runs currently consuming events.
	Runs   int `json:"runs"`
	Active int `json:"active"`

	// Completion aggregates the per-message completion-time histogram
	// (µs) across every finished run.
	Completion HistSnapshot `json:"completion"`

	// HotPorts ranks switch output ports by peak queued bytes across
	// every finished run.
	HotPorts []HotPort `json:"hot_ports"`

	// Live is the series of the oldest still-active run, or the last
	// finished run when the sweep is idle; LiveDone says which.
	Live     *SamplerSnapshot `json:"live,omitempty"`
	LiveDone bool             `json:"live_done"`
}

// Hub aggregates per-run samplers into sweep-level telemetry. Parallel
// runs have independent simulated clocks, so each run gets its own
// Sampler (StartRun) and the hub folds finished runs into cross-run
// aggregates (FinishRun). Snapshot is safe to call concurrently from
// another goroutine while workers start and finish runs. A nil *Hub is a valid
// disabled hub: StartRun returns a nil sampler and every attach point
// stays a single nil check.
type Hub struct {
	mu      sync.Mutex
	cadence sim.Duration
	seq     uint64
	active  map[*Sampler]uint64
	done    int

	completion Hist
	peaks      obs.PortTable[portPeak]
	last       *SamplerSnapshot
}

// NewHub returns an empty hub; cadence <= 0 selects DefaultCadence for
// the samplers it hands out.
func NewHub(cadence sim.Duration) *Hub {
	if cadence <= 0 {
		cadence = DefaultCadence
	}
	return &Hub{
		cadence: cadence,
		active:  make(map[*Sampler]uint64),
	}
}

// StartRun registers a new run and returns its sampler (nil when the hub
// is nil, which every consumer treats as telemetry-off).
func (h *Hub) StartRun(name string) *Sampler {
	if h == nil {
		return nil
	}
	s := NewSampler(name, h.cadence)
	h.mu.Lock()
	h.seq++
	h.active[s] = h.seq
	h.mu.Unlock()
	return s
}

// FinishRun flushes the sampler and folds it into the aggregates. It is
// a no-op on a nil hub or sampler. Lock order is hub before sampler
// everywhere (here and in Snapshot), and samplers never take the hub
// lock, so the nesting cannot deadlock.
func (h *Hub) FinishRun(s *Sampler) {
	if h == nil || s == nil {
		return
	}
	s.Finish()
	snap := s.Snapshot()
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.active, s)
	h.done++
	h.last = &snap
	s.mergeInto(&h.completion, &h.peaks)
}

// Snapshot returns the sweep-level view. Safe for concurrent use.
func (h *Hub) Snapshot() HubSnapshot {
	if h == nil {
		return HubSnapshot{}
	}
	h.mu.Lock()
	var live *Sampler
	var liveSeq uint64
	for s, q := range h.active {
		if live == nil || q < liveSeq {
			live, liveSeq = s, q
		}
	}
	snap := HubSnapshot{
		Runs:       h.done,
		Active:     len(h.active),
		Completion: h.completion.snapshot(1e-6),
		HotPorts:   hotPorts(h.peaks),
	}
	if live != nil {
		ls := live.Snapshot()
		snap.Live = &ls
	} else if h.last != nil {
		snap.Live = h.last
		snap.LiveDone = true
	}
	h.mu.Unlock()
	return snap
}

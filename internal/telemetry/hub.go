package telemetry

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
)

// HubSnapshot is the sweep-level telemetry view: aggregates across
// every finished run.
type HubSnapshot struct {
	// Runs counts finished runs folded into the aggregates.
	Runs int `json:"runs"`

	// Completion aggregates the per-message completion-time histogram
	// (µs) across every finished run.
	Completion HistSnapshot `json:"completion"`

	// HotPorts ranks switch output ports by peak queued bytes across
	// every finished run.
	HotPorts []HotPort `json:"hot_ports"`
}

// Hub aggregates per-run samplers into sweep-level telemetry. Parallel
// runs have independent simulated clocks, so each run gets its own
// Sampler (StartRun) and the hub folds finished runs into cross-run
// aggregates (FinishRun), which workers may call concurrently. A nil
// *Hub is a valid disabled hub: StartRun returns a nil sampler and
// every attach point stays a single nil check.
type Hub struct {
	mu      sync.Mutex
	cadence sim.Duration
	done    int

	completion Hist
	peaks      obs.PortTable[portPeak]
}

// NewHub returns an empty hub; cadence <= 0 selects DefaultCadence for
// the samplers it hands out.
func NewHub(cadence sim.Duration) *Hub {
	if cadence <= 0 {
		cadence = DefaultCadence
	}
	return &Hub{cadence: cadence}
}

// StartRun returns a new run's sampler (nil when the hub is nil, which
// every consumer treats as telemetry-off).
func (h *Hub) StartRun(name string) *Sampler {
	if h == nil {
		return nil
	}
	return NewSampler(name, h.cadence)
}

// FinishRun flushes the sampler and folds it into the aggregates. It is
// a no-op on a nil hub or sampler.
func (h *Hub) FinishRun(s *Sampler) {
	if h == nil || s == nil {
		return
	}
	s.Finish()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.done++
	s.mergeInto(&h.completion, &h.peaks)
}

// Snapshot returns the sweep-level view. Safe for concurrent use.
func (h *Hub) Snapshot() HubSnapshot {
	if h == nil {
		return HubSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HubSnapshot{
		Runs:       h.done,
		Completion: h.completion.snapshot(1e-6),
		HotPorts:   hotPorts(h.peaks),
	}
}

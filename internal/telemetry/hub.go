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

// Hub aggregates a sweep's runs into sweep-level telemetry: the message
// completion histogram and the port peaks. Parallel runs have
// independent simulated clocks, so each run gets its own reader
// (StartRun), whose finish folds the run into cross-run aggregates;
// workers may finish runs concurrently. A nil *Hub is telemetry off:
// Snapshot returns the zero view.
type Hub struct {
	mu   sync.Mutex
	done int

	completion Hist
	peaks      obs.PortTable[portPeak]
}

// NewHub returns an empty hub. It keeps no time series, so the cadence
// argument is ignored; it stays for callers that pass one.
func NewHub(sim.Duration) *Hub { return &Hub{} }

// StartRun makes the hub the bus's span reader for one run and returns
// the function that folds the run into the aggregates when it has
// ended: every message's completion span, recorded as the bus's table
// closes it, and the port peaks, read once at the end. It keeps no
// rows and subscribes to no event, so the bus ticks nothing for it.
func (h *Hub) StartRun(b *obs.Bus) (finish func()) {
	var completion Hist
	reg := b.Registry()
	reg.SetSpan(func(d sim.Duration) { completion.Record(int64(d)) })
	return func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.done++
		h.completion.Merge(&completion)
		reg.Each(func(k obs.PortKey, p *obs.PortCounters) {
			if agg := h.peaks.At(k.Switch, k.Port); p.PeakDepth > agg.peak {
				agg.peak, agg.host = p.PeakDepth, p.HostPort
			}
		})
	}
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

package core

import (
	"io"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// ObserveOpts selects the flight-recorder consumers to attach to a
// built instance. Any combination may be enabled; the zero value
// attaches a bare bus with no consumers (events are skipped at the
// publish site, so it is as free as not observing at all).
type ObserveOpts struct {
	// Events streams every event as one JSON line.
	Events io.Writer
	// Tree attaches the congestion-tree analyzer.
	Tree bool
	// Counters switches on the bus's per-switch-port counter registry.
	Counters bool
	// Telemetry attaches a pre-built time-series sampler (nil skips it —
	// the sampler's own nil guard makes the wiring unconditional).
	Telemetry *telemetry.Sampler
}

// Observation is the handle to a run's attached flight recorder. The
// analytical consumers are ready after Execute; Close must run before
// the Events output is read.
type Observation struct {
	// Bus is the event bus wired into the fabric and the CC manager.
	Bus *obs.Bus
	// Registry holds the per-switch-port counters (Counters option).
	Registry *obs.Registry
	// Tree is the congestion-tree analyzer (Tree option).
	Tree *obs.TreeAnalyzer

	jsonl *obs.JSONLWriter
}

// Observe attaches the flight recorder to a built-but-not-executed
// instance: it creates the event bus, subscribes the consumers selected
// in o, and wires the bus into the fabric and (when CC is on) the CC
// manager. Call between Build and Execute.
func (in *Instance) Observe(o ObserveOpts) *Observation {
	if in.executed {
		panic("core: Observe after Execute")
	}
	bus := in.bus()
	ob := &Observation{Bus: bus}
	if o.Events != nil {
		ob.jsonl = obs.NewJSONLWriter(o.Events)
		ob.jsonl.Attach(bus)
	}
	if o.Tree {
		ob.Tree = obs.NewTreeAnalyzer()
		ob.Tree.Attach(bus)
	}
	if o.Counters {
		ob.Registry = bus.Registry()
	}
	o.Telemetry.Attach(bus)
	return ob
}

// bus returns the instance's flight-recorder bus, creating and wiring it
// into the fabric and the CC manager on first use. Observe and Check
// share it, so a run may attach both.
func (in *Instance) bus() *obs.Bus {
	if in.busv == nil {
		in.busv = obs.New()
		in.Net.SetBus(in.busv)
		if in.Backend != nil {
			in.Backend.SetBus(in.busv)
		}
	}
	return in.busv
}

// TreeReport reconstructs the congestion trees observed by the run.
// It requires the Tree option.
func (ob *Observation) TreeReport() *obs.TreeReport {
	if ob.Tree == nil {
		return nil
	}
	return ob.Tree.Report()
}

// Close finalizes the streaming consumer (flushing the JSONL log) and
// returns the first write error it hit. Call after Execute.
func (ob *Observation) Close() error {
	if ob.jsonl == nil {
		return nil
	}
	return ob.jsonl.Close()
}

// EventsWritten reports how many events the JSONL log wrote (zero
// without the Events option).
func (ob *Observation) EventsWritten() uint64 {
	if ob.jsonl == nil {
		return 0
	}
	return ob.jsonl.Events()
}

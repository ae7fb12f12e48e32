package cc

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Throttle is the injection-gate hook a backend exposes to the traffic
// generators: the extra inter-packet delay to insert after a packet of
// the given wire size on flow src→dst. It mirrors (and is assignable
// to) the traffic package's Throttle interface; declaring it here keeps
// cc free of a traffic import.
type Throttle interface {
	IRD(src, dst ib.LID, wireBytes int) sim.Duration
}

// Backend is one pluggable congestion-control mechanism. A backend owns
// three hook points of the control loop:
//
//   - switch-mark: Hooks() installs the fabric hooks that sample queue
//     state and mark packets (FECN/ECN) at switch output ports;
//   - source-notify: the same hooks' Deliver path turns marks into
//     notifications (CNPs) and consumes them at the source CA;
//   - injection-gate: Throttle() paces the marked flows at the
//     generators.
//
// Backends must be deterministic: for a given scenario seed, the same
// trajectory every run, independent of map iteration order or wall
// clock. Everything else (Stats, CheckInvariants, ThrottleSummary)
// serves observability and the runtime invariant checker.
type Backend interface {
	// Name returns the registry name the backend was created under.
	Name() string
	// Hooks returns the fabric hooks implementing the mechanism; the
	// core runner installs them before the network starts. A zero
	// Hooks value is valid (a backend may be gate-only, or nothing).
	Hooks() fabric.Hooks
	// Throttle returns the injection gate, or nil when the backend
	// never delays injection.
	Throttle() Throttle
	// SetBus attaches the flight-recorder event bus (nil disables
	// publication; backends must be nil-safe).
	SetBus(*obs.Bus)
	// Stats returns a snapshot of the activity counters.
	Stats() Stats
	// CheckInvariants verifies the backend's structural invariants at
	// an event boundary (the invariant checker's cc-state sweep).
	CheckInvariants() error
	// ThrottleSummary reports how many flows currently hold congestion
	// state and the mean throttle depth (mechanism-defined units).
	ThrottleSummary() (flows int, mean float64)
}

// BackendConfig carries the per-scenario inputs a backend factory may
// consume; each backend reads only its own fields.
type BackendConfig struct {
	// Params is the IB CCA parameter set (the ibcc backend).
	Params Params
	// OracleShares is the clairvoyant per-flow fair-share allocation of
	// the oracle backend: flows absent from the map are never gated.
	OracleShares map[ib.FlowKey]sim.Rate
	// InjectionRate is the host injection line rate, the reference the
	// oracle computes pacing against.
	InjectionRate sim.Rate
}

// Factory builds a backend instance bound to a network.
type Factory func(net *fabric.Network, cfg BackendConfig) (Backend, error)

// DefaultBackend is the name an empty scenario selector resolves to:
// the classic IB CCA manager.
const DefaultBackend = "ibcc"

// registry holds the backends: the IB CC annex under study and its two
// bounds, nocc below and oracle above.
var registry = map[string]Factory{
	DefaultBackend: func(net *fabric.Network, cfg BackendConfig) (Backend, error) {
		return New(net, cfg.Params)
	},
	"nocc": func(*fabric.Network, BackendConfig) (Backend, error) {
		return NoCC{}, nil
	},
	"oracle": func(_ *fabric.Network, cfg BackendConfig) (Backend, error) {
		return NewOracle(cfg.OracleShares, cfg.InjectionRate)
	},
}

// Known reports whether a backend name is registered ("" counts: it is
// the default).
func Known(name string) bool {
	if name == "" {
		name = DefaultBackend
	}
	_, ok := registry[name]
	return ok
}

// Names returns the registered backend names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewBackend creates the named backend ("" selects DefaultBackend)
// bound to net. Unknown names list the registry in the error.
func NewBackend(name string, net *fabric.Network, cfg BackendConfig) (Backend, error) {
	if name == "" {
		name = DefaultBackend
	}
	f := registry[name]
	if f == nil {
		return nil, fmt.Errorf("cc: unknown backend %q (registered: %v)", name, Names())
	}
	return f(net, cfg)
}

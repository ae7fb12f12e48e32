package cc

import (
	"repro/internal/fabric"
	"repro/internal/obs"
)

// NoCC is the lower-bound backend: no marking, no notifications, no
// injection gating. Running a scenario with CCOn and the "nocc" backend
// takes exactly the code path a CC-off build takes (zero fabric hooks,
// nil throttle), so its trajectory is byte-identical to CCOn=false —
// the floor on every congestion metric.
type NoCC struct{}

// Name implements Backend.
func (NoCC) Name() string { return "nocc" }

// Hooks implements Backend: no hook points are installed.
func (NoCC) Hooks() fabric.Hooks { return fabric.Hooks{} }

// Throttle implements Backend: injection is never gated.
func (NoCC) Throttle() Throttle { return nil }

// SetBus implements Backend: nothing is published.
func (NoCC) SetBus(*obs.Bus) {}

// Stats implements Backend.
func (NoCC) Stats() Stats { return Stats{} }

// CheckInvariants implements Backend: there is no state to break.
func (NoCC) CheckInvariants() error { return nil }

// ThrottleSummary implements Backend.
func (NoCC) ThrottleSummary() (int, float64) { return 0, 0 }

var _ Backend = NoCC{}

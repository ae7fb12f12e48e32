package cc

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Oracle is the clairvoyant upper-bound backend: it knows, from the
// scenario's ground truth, which flows feed each congestion tree and
// what their max-min fair share of the hotspot's sink capacity is, and
// it paces exactly those flows to their share from time zero. There is
// no detection, no notification traffic and no control-loop transient —
// victims are never gated, contributors never overshoot — so it bounds
// what the reactive mechanism (ibcc) can achieve on the fairness
// and victim-throughput scores. The idiom follows the NoCC/OracleCC
// baseline pair common in CC evaluation harnesses.
type Oracle struct {
	shares map[ib.FlowKey]sim.Rate
	inj    sim.Rate
}

// NewOracle builds the oracle gate from a per-flow fair-share map
// (flows absent from the map are never delayed) and the host injection
// line rate the extra spacing is computed against.
func NewOracle(shares map[ib.FlowKey]sim.Rate, inj sim.Rate) (*Oracle, error) {
	if inj <= 0 {
		return nil, fmt.Errorf("cc: oracle needs a positive injection rate")
	}
	for k, r := range shares {
		if r <= 0 {
			return nil, fmt.Errorf("cc: oracle share for flow %v must be positive, got %v", k, r)
		}
	}
	return &Oracle{shares: shares, inj: inj}, nil
}

// Name implements Backend.
func (o *Oracle) Name() string { return "oracle" }

// Hooks implements Backend: the oracle needs no fabric feedback.
func (o *Oracle) Hooks() fabric.Hooks { return fabric.Hooks{} }

// Throttle implements Backend.
func (o *Oracle) Throttle() Throttle {
	if len(o.shares) == 0 {
		return nil
	}
	return o
}

// SetBus implements Backend: the oracle publishes nothing.
func (o *Oracle) SetBus(*obs.Bus) {}

// Stats implements Backend: no marks, notifications or timer activity.
func (o *Oracle) Stats() Stats { return Stats{} }

// CheckInvariants implements Backend: the share table is immutable, so
// the construction-time validation cannot rot.
func (o *Oracle) CheckInvariants() error { return nil }

// ThrottleSummary implements Backend: every tabled flow is permanently
// gated; the mean reports the average pacing depth in line-rate
// multiples (inj/share), comparable in spirit to a mean CCT multiple.
func (o *Oracle) ThrottleSummary() (int, float64) {
	if len(o.shares) == 0 {
		return 0, 0
	}
	var sum float64
	for _, r := range o.shares {
		sum += float64(o.inj) / float64(r)
	}
	return len(o.shares), sum / float64(len(o.shares))
}

// IRD implements Throttle: gated flows are paced at their fair share —
// the extra delay stretches the generator's base spacing (wire/inj) to
// wire/share; ungated flows and shares at or above the line rate get 0.
func (o *Oracle) IRD(src, dst ib.LID, wireBytes int) sim.Duration {
	share, ok := o.shares[ib.FlowKey{Src: src, Dst: dst}]
	if !ok {
		return 0
	}
	d := share.TxTime(wireBytes) - o.inj.TxTime(wireBytes)
	if d < 0 {
		return 0
	}
	return d
}

var _ Backend = (*Oracle)(nil)

package core

import (
	"repro/internal/check"
	"repro/internal/ib"
)

// CheckOpts configures the runtime invariant checker attached to a run.
// It is the CheckOpts sibling of ObserveOpts: the zero value enables the
// full invariant suite at its defaults (50 µs sweep window, 1 ms
// watchdog, no diagnostics stream).
type CheckOpts = check.Config

// Check attaches the runtime invariant checker to a not-yet-executed
// instance — freshly built, or restored from a checkpoint whoever wrote
// it — and returns it; Execute then stops at every sweep window. Inspect
// the checker's Report after Execute. The checker never perturbs the
// trajectory — a checked run is bit-identical to an unchecked one.
func (in *Instance) Check(o CheckOpts) *check.Checker {
	if in.executed {
		panic("core: Check after Execute")
	}
	ck := check.New(in.checkTarget(), o)
	ck.Attach(in.bus())
	in.checker = ck
	return ck
}

// checkTarget is the instance as the invariant rules see it.
func (in *Instance) checkTarget() check.Target {
	t := check.Target{
		Sim:            in.Net.Sim(),
		Net:            in.Net,
		Pool:           in.Net.PacketPool(),
		SourcesPending: in.sourcesPending,
	}
	if in.Backend != nil {
		// Assign only a live backend: a nil cc.Backend stuffed into the
		// interface would read as non-nil to the checker.
		t.CC = in.Backend
	}
	return t
}

// sourcesPending sums the generated-but-not-injected packets across the
// instance's traffic generators; the checker balances them against the
// fabric's custody census.
func (in *Instance) sourcesPending() int {
	n := 0
	for _, g := range in.sources {
		if g != nil {
			n += g.PendingPackets()
		}
	}
	return n
}

// DeliveredPackets sums the packets consumed by every host sink; the
// differential and invariant tests use it as a model-level progress
// measure.
func (in *Instance) DeliveredPackets() uint64 {
	var rx uint64
	for lid := 0; lid < in.Net.NumHosts(); lid++ {
		rx += in.Net.HCA(ib.LID(lid)).Counters().RxPackets
	}
	return rx
}

// RunChecked executes one scenario end to end under the runtime
// invariant checker and returns the result alongside the checker's
// report. The result is identical to Run's: checking does not perturb
// the trajectory.
func RunChecked(s Scenario, o CheckOpts) (*Result, *check.Report, error) {
	in, err := Build(s)
	if err != nil {
		return nil, nil, err
	}
	ck := in.Check(o)
	res := in.Execute()
	return res, ck.Report(), nil
}

package core

import (
	"repro/internal/check"
	"repro/internal/obs"
)

// TreedResult pairs a run's result with the congestion-tree report its
// flight recorder reconstructed — the unit the tournament scorer
// consumes.
type TreedResult struct {
	Result *Result
	// Trees is the congestion-tree analyzer's report over the run, nil
	// when the analyzer was not attached.
	Trees *obs.TreeReport
	// Check is the invariant checker's report, nil for unchecked runs.
	Check *check.Report
}

// RunTreedBatch executes the scenarios on the sweep worker pool with
// the tree analyzer attached to every run, returning results in
// submission order. Opts.Lookup is ignored: stored artifacts carry no
// flight-recorder stream, so a tree-scored sweep always simulates.
func RunTreedBatch(o Opts, scenarios []Scenario) ([]*TreedResult, error) {
	o.Lookup = nil
	return runTreedBatch(o, scenarios, true)
}

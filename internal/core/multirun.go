package core

import (
	"fmt"
	"io"

	"repro/internal/stats"
)

// MultiResult aggregates one scenario's headline metrics across seeds.
type MultiResult struct {
	Seeds []uint64
	// Hotspot, NonHotspot, All and Total accumulate the Summary fields
	// of each run (Gbit/s).
	Hotspot, NonHotspot, All, Total stats.Acc
	// Events accumulates simulation effort.
	Events stats.Acc
}

// RunSeedsOpts executes the scenario once per seed and aggregates the
// results; the population and every random draw differ per seed. The
// per-seed runs are independent and fan out across Opts.Workers
// goroutines, and the aggregation happens afterwards in seed order, so
// the aggregates are bit-identical for any worker count.
func RunSeedsOpts(s Scenario, seeds []uint64, o Opts) (*MultiResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("core: no seeds")
	}
	scenarios := make([]Scenario, len(seeds))
	for i, seed := range seeds {
		scenarios[i] = s
		scenarios[i].Seed = seed
	}
	results, err := runBatch(o, scenarios)
	if err != nil {
		return nil, err
	}
	out := &MultiResult{Seeds: append([]uint64(nil), seeds...)}
	for _, r := range results {
		out.Hotspot.Add(r.Summary.HotspotAvgGbps)
		out.NonHotspot.Add(r.Summary.NonHotspotAvgGbps)
		out.All.Add(r.Summary.AllAvgGbps)
		out.Total.Add(r.Summary.TotalGbps)
		out.Events.Add(float64(r.Events))
	}
	return out, nil
}

// Print writes the aggregated metrics with 95% confidence intervals.
func (m *MultiResult) Print(w io.Writer, label string) {
	fmt.Fprintf(w, "%s over %d seeds (mean ±95%% CI):\n", label, len(m.Seeds))
	fmt.Fprintf(w, "  hotspots     %8.3f ±%.3f Gbps\n", m.Hotspot.Mean(), m.Hotspot.CI95())
	fmt.Fprintf(w, "  non-hotspots %8.3f ±%.3f Gbps\n", m.NonHotspot.Mean(), m.NonHotspot.CI95())
	fmt.Fprintf(w, "  all nodes    %8.3f ±%.3f Gbps\n", m.All.Mean(), m.All.CI95())
	fmt.Fprintf(w, "  total        %8.1f ±%.1f Gbps\n", m.Total.Mean(), m.Total.CI95())
}

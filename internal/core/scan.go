package core

import (
	"fmt"
	"io"
)

// ScanPoint is one configuration of a parameter scan: the swept value
// and the headline rates it produced (Gbit/s), plus the improvement over
// the shared CC-off baseline.
type ScanPoint struct {
	Value       int
	Hot         float64
	NonHot      float64
	Total       float64
	Improvement float64
	MaxCCTI     uint16
	FECNMarked  uint64
}

// Scan is the result of a one-dimensional parameter scan.
type Scan struct {
	Name string
	// Baseline is the CC-off run every point is compared against.
	Baseline struct{ Hot, NonHot, Total float64 }
	Points   []ScanPoint
}

// ScanCCOpts sweeps one congestion-control (or scenario) parameter: for each
// value, apply mutates a copy of the base scenario, which then runs with
// CC on. A single CC-off baseline of the unmutated scenario anchors the
// improvement factors. This reproduces the kind of tuning study the
// authors' earlier hardware work performed, and which the paper says
// "remains a highly specialized task". The baseline and every scan
// point are independent and fan out across the worker pool, with the
// improvement factors computed afterwards in value order.
func ScanCCOpts(base Scenario, name string, values []int, apply func(*Scenario, int), o Opts) (*Scan, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("core: empty scan")
	}
	if apply == nil {
		return nil, fmt.Errorf("core: nil apply")
	}
	// Scenario 0 is the shared CC-off baseline, then one per value.
	scenarios := make([]Scenario, 0, 1+len(values))
	off := base
	off.CCOn = false
	off.Name = name + " baseline"
	scenarios = append(scenarios, off)
	for _, v := range values {
		s := base
		s.CCOn = true
		s.Name = fmt.Sprintf("%s=%d", name, v)
		apply(&s, v)
		scenarios = append(scenarios, s)
	}
	results, err := runBatch(o, scenarios)
	if err != nil {
		return nil, fmt.Errorf("core: scan %s: %w", name, err)
	}

	out := &Scan{Name: name}
	out.Baseline.Hot = results[0].Summary.HotspotAvgGbps
	out.Baseline.NonHot = results[0].Summary.NonHotspotAvgGbps
	out.Baseline.Total = results[0].Summary.TotalGbps
	for i, v := range values {
		r := results[1+i]
		pt := ScanPoint{
			Value:      v,
			Hot:        r.Summary.HotspotAvgGbps,
			NonHot:     r.Summary.NonHotspotAvgGbps,
			Total:      r.Summary.TotalGbps,
			MaxCCTI:    r.CCStats.MaxCCTI,
			FECNMarked: r.CCStats.FECNMarked,
		}
		pt.Improvement = ratio(pt.Total, out.Baseline.Total)
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// Best returns the point with the highest total throughput, or the
// zero ScanPoint when the scan has no points.
func (s *Scan) Best() ScanPoint {
	if len(s.Points) == 0 {
		return ScanPoint{}
	}
	best := s.Points[0]
	for _, p := range s.Points[1:] {
		if p.Total > best.Total {
			best = p
		}
	}
	return best
}

// Print writes the scan as a table.
func (s *Scan) Print(w io.Writer) {
	fmt.Fprintf(w, "parameter scan: %s (baseline without CC: hot %.3f, non-hot %.3f, total %.1f)\n",
		s.Name, s.Baseline.Hot, s.Baseline.NonHot, s.Baseline.Total)
	fmt.Fprintf(w, "  %8s %9s %9s %9s %9s %9s %10s\n",
		"value", "hot", "nonhot", "total", "gain", "maxCCTI", "marks")
	for _, p := range s.Points {
		fmt.Fprintf(w, "  %8d %9.3f %9.3f %9.1f %8.2fx %9d %10d\n",
			p.Value, p.Hot, p.NonHot, p.Total, p.Improvement, p.MaxCCTI, p.FECNMarked)
	}
	if len(s.Points) > 0 {
		best := s.Best()
		fmt.Fprintf(w, "  best total at %s=%d (%.1f Gbps, %.2fx)\n", s.Name, best.Value, best.Total, best.Improvement)
	}
}

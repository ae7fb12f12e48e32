package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/sim"
)

// WriteCSV writes the snapshot's series as one table on the sampler's
// fixed grid: a time column in seconds (each bin's end) followed by one
// column per series. Every series is pushed once per bin, so the
// columns always align; a sampler that saw no events writes just the
// header — an empty table, not an error.
func (s *SamplerSnapshot) WriteCSV(w io.Writer) error {
	cols := []struct {
		name   string
		series *Series
	}{
		{"hotspot_gbps", &s.HotspotGbps}, {"other_gbps", &s.OtherGbps}, {"control_gbps", &s.ControlGbps},
		{"queued_kb", &s.QueuedKB}, {"max_port_kb", &s.MaxPortKB},
		{"throttled", &s.Throttled}, {"max_ccti", &s.MaxCCTI}, {"mean_ccti", &s.MeanCCTI},
		{"drops", &s.Drops}, {"stalls", &s.Stalls},
	}
	bw := bufio.NewWriter(w)
	bw.WriteString("time_s")
	for _, c := range cols {
		bw.WriteString("," + c.name)
	}
	bw.WriteByte('\n')
	for i, tUS := range s.QueuedKB.TUS {
		bw.WriteString(strconv.FormatFloat(tUS/1e6, 'g', 10, 64))
		for _, c := range cols {
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatFloat(c.series.V[i], 'g', 8, 64))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteCCTITable renders the congestion-control series as the
// CCTI-over-time table (cctinspect -run): per bin the number of CCTI
// increases and decreases, and at the bin's close the number of
// throttled flows and the max and mean CCTI across them.
func (s *SamplerSnapshot) WriteCCTITable(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%12s %8s %8s %8s %8s %8s\n", "t", "incr", "decr", "flows", "maxCCTI", "meanCCTI")
	for i, tUS := range s.Throttled.TUS {
		t := sim.Time(math.Round(tUS * float64(sim.Microsecond)))
		fmt.Fprintf(bw, "%12v %8.0f %8.0f %8.0f %8.0f %8.2f\n",
			t, s.CCTIIncr.V[i], s.CCTIDecr.V[i], s.Throttled.V[i], s.MaxCCTI.V[i], s.MeanCCTI.V[i])
	}
	return bw.Flush()
}

// Sum returns the sum of the series' values — the run total of a
// per-bin count series (drops, stalls, CCTI steps).
func (s Series) Sum() float64 {
	var sum float64
	for _, v := range s.V {
		sum += v
	}
	return sum
}

package telemetry

import (
	"bufio"
	"io"
	"strconv"
)

// WriteCSV writes the snapshot's rows as one table on the sampler's
// fixed grid: a time column in seconds (each bin's end) followed by one
// column per series, one line per row. A sampler that saw no events
// writes just the header — an empty table, not an error.
func (s *SamplerSnapshot) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("time_s,hotspot_gbps,other_gbps,control_gbps,queued_kb,max_port_kb," +
		"throttled,max_ccti,mean_ccti,ccti_incr,ccti_decr,drops,stalls\n")
	for _, r := range s.Rows {
		bw.WriteString(strconv.FormatFloat(r.EndUS/1e6, 'g', 10, 64))
		for _, v := range [...]float64{
			r.HotspotGbps, r.OtherGbps, r.ControlGbps, r.QueuedKB, r.MaxPortKB,
			r.Throttled, r.MaxCCTI, r.MeanCCTI, r.CCTIIncr, r.CCTIDecr, r.Drops, r.Stalls,
		} {
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatFloat(v, 'g', 8, 64))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Package metrics measures the quantities the paper reports: per-node
// receive and transmit rates over a measurement window that excludes
// warmup, aggregated over node classes (hotspots vs non-hotspots), and
// total network throughput.
package metrics

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/sim"
)

// Collector snapshots every host's counters at the start of the
// measurement window and computes rates at its end.
type Collector struct {
	net   *fabric.Network
	start sim.Time
	base  []fabric.HCACounters
}

// NewCollector arms a snapshot of all host counters at startAt on the
// network's simulator. Rates are later computed relative to it.
func NewCollector(net *fabric.Network, startAt sim.Time) *Collector {
	c := &Collector{net: net, start: startAt}
	net.Sim().ScheduleActionAt(startAt, &snapAct{c: c})
	return c
}

// snapAct is the warmup-snapshot event, a named action so a pending one
// can be serialized into a checkpoint and rebuilt on restore.
type snapAct struct{ c *Collector }

func (a *snapAct) Act() {
	c := a.c
	c.base = make([]fabric.HCACounters, c.net.NumHosts())
	for i := range c.base {
		c.base[i] = c.net.HCA(ib.LID(i)).Counters()
	}
}

// NodeRates are per-node rates in bits per second over the measurement
// window, indexed by LID.
type NodeRates struct {
	// Window is the measurement span the rates cover.
	Window sim.Duration
	// RxPayload is the delivered application-payload rate.
	RxPayload []float64
	// RxWire is the delivered wire rate (payload + headers + CNPs).
	RxWire []float64
	// TxPayload is the injected application-payload rate.
	TxPayload []float64
}

// Rates computes per-node rates from the warmup snapshot to the current
// simulation time. It panics if called before the snapshot fired or
// within a zero-length window.
func (c *Collector) Rates() NodeRates {
	now := c.net.Sim().Now()
	if c.base == nil {
		panic("metrics: rates requested before the warmup snapshot")
	}
	window := now.Sub(c.start)
	if window <= 0 {
		panic("metrics: empty measurement window")
	}
	n := c.net.NumHosts()
	r := NodeRates{
		Window:    window,
		RxPayload: make([]float64, n),
		RxWire:    make([]float64, n),
		TxPayload: make([]float64, n),
	}
	secs := window.Seconds()
	for i := 0; i < n; i++ {
		cur := c.net.HCA(ib.LID(i)).Counters()
		base := c.base[i]
		r.RxPayload[i] = float64(cur.RxDataPayload-base.RxDataPayload) * 8 / secs
		r.RxWire[i] = float64(cur.RxBytes-base.RxBytes) * 8 / secs
		r.TxPayload[i] = float64(cur.TxDataPayload-base.TxDataPayload) * 8 / secs
	}
	return r
}

// WholeRun summarizes the whole run, from time 0 to the current
// simulation time, by class. Every counter starts at zero, so the
// end-of-run counters alone give it: no snapshot, and no per-node
// slices. The sums run in LID order, as Summarize's do, so a node's
// rate is added exactly as a per-node NodeRates would add it.
func (c *Collector) WholeRun(hotspots map[ib.LID]bool) Classes {
	secs := c.net.Sim().Now().Seconds()
	n := c.net.NumHosts()
	var sum [2][3]float64 // [payload, wire][hotspots, others, all]
	hot := 0
	for i := 0; i < n; i++ {
		cur := c.net.HCA(ib.LID(i)).Counters()
		class := 1
		if hotspots[ib.LID(i)] {
			class, hot = 0, hot+1
		}
		for k, bytes := range [2]uint64{cur.RxDataPayload, cur.RxBytes} {
			r := float64(bytes) * 8 / secs
			sum[k][class] += r
			sum[k][2] += r
		}
	}
	avg := func(s float64, count int) float64 {
		if count == 0 {
			return 0
		}
		return Gbps(s / float64(count))
	}
	var out [2]Summary
	for k, s := range sum {
		out[k] = Summary{avg(s[0], hot), avg(s[1], n-hot), avg(s[2], n), Gbps(s[2])}
	}
	return Classes{out[0], out[1]}
}

// Avg returns the mean of vals over the given LIDs, or over all nodes
// when lids is nil.
func Avg(vals []float64, lids []ib.LID) float64 {
	if lids == nil {
		return Sum(vals, nil) / float64(len(vals))
	}
	if len(lids) == 0 {
		return 0
	}
	return Sum(vals, lids) / float64(len(lids))
}

// Sum returns the sum of vals over the given LIDs, or over all nodes
// when lids is nil.
func Sum(vals []float64, lids []ib.LID) float64 {
	var s float64
	if lids == nil {
		for _, v := range vals {
			s += v
		}
		return s
	}
	for _, l := range lids {
		s += vals[l]
	}
	return s
}

// Partition splits all LIDs of an n-node network into (members, rest)
// according to the membership set.
func Partition(n int, members map[ib.LID]bool) (in, out []ib.LID) {
	for i := 0; i < n; i++ {
		if members[ib.LID(i)] {
			in = append(in, ib.LID(i))
		} else {
			out = append(out, ib.LID(i))
		}
	}
	return
}

// Gbps converts bits per second to gigabits per second.
func Gbps(bps float64) float64 { return bps / 1e9 }

// Summary condenses a run into the row format of the paper's tables:
// average receive rates of hotspots and non-hotspots and the total
// network throughput, all in Gbit/s of application payload (of wire
// bytes in Classes.Wire).
type Summary struct {
	HotspotAvgGbps    float64
	NonHotspotAvgGbps float64
	AllAvgGbps        float64
	TotalGbps         float64
}

// Summarize builds a Summary of the payload rates from per-node rates
// and the hotspot set.
func Summarize(r NodeRates, hotspots map[ib.LID]bool) Summary {
	return summarize(r.RxPayload, hotspots)
}

func summarize(rx []float64, hotspots map[ib.LID]bool) Summary {
	hot, non := Partition(len(rx), hotspots)
	return Summary{
		HotspotAvgGbps:    Gbps(Avg(rx, hot)),
		NonHotspotAvgGbps: Gbps(Avg(rx, non)),
		AllAvgGbps:        Gbps(Avg(rx, nil)),
		TotalGbps:         Gbps(Sum(rx, nil)),
	}
}

// Classes is one window's class summary twice: of the delivered
// payload, and of the wire bytes the sinks drained (payload, headers
// and CNPs).
type Classes struct {
	Payload, Wire Summary
}

// SummarizeWire is Summarize of the wire rates.
func SummarizeWire(r NodeRates, hotspots map[ib.LID]bool) Summary {
	return summarize(r.RxWire, hotspots)
}

func (s Summary) String() string {
	return fmt.Sprintf("hot=%.3fG non=%.3fG all=%.3fG total=%.1fG",
		s.HotspotAvgGbps, s.NonHotspotAvgGbps, s.AllAvgGbps, s.TotalGbps)
}

// LatencySummary condenses the network-wide packet-latency distribution
// over the measurement window.
type LatencySummary struct {
	// Count is the number of delivered data packets measured.
	Count uint64
	// Mean, P50, P99 and Max are in simulated time; the quantiles are
	// log2-bucket upper bounds.
	Mean, P50, P99, Max sim.Duration
}

// Latency aggregates every host's latency histogram over the window
// since the warmup snapshot.
func (c *Collector) Latency() LatencySummary {
	if c.base == nil {
		panic("metrics: latency requested before the warmup snapshot")
	}
	var agg fabric.LatencyHist
	for i := 0; i < c.net.NumHosts(); i++ {
		h := c.net.HCA(ib.LID(i)).Counters().Latency.Sub(c.base[i].Latency)
		agg.Merge(&h)
	}
	return LatencySummary{
		Count: agg.Count,
		Mean:  agg.Mean(),
		P50:   agg.Quantile(0.50),
		P99:   agg.Quantile(0.99),
		Max:   agg.Max(),
	}
}

func (l LatencySummary) String() string {
	return fmt.Sprintf("lat{n=%d mean=%v p50<%v p99<%v max=%v}",
		l.Count, l.Mean, l.P50, l.P99, l.Max)
}

// Percentiles returns the requested percentiles (0–100) of vals, useful
// for fairness inspection in the examples.
func Percentiles(vals []float64, ps ...float64) []float64 {
	if len(vals) == 0 {
		return make([]float64, len(ps))
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p < 0 {
			p = 0
		}
		if p > 100 {
			p = 100
		}
		idx := int(p / 100 * float64(len(sorted)-1))
		out[i] = sorted[idx]
	}
	return out
}

// Jain is the Jain fairness index of the sample: (Σx)²/(n·Σx²), 1 when
// every value is equal and 1/n when one value holds everything. An
// all-zero sample is perfectly (if vacuously) fair and scores 1; an
// empty sample scores 0 — there is no population to be fair to.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}

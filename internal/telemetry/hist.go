// Package telemetry is the live observability layer above the flight
// recorder: fixed-cadence ring-buffer time series sampled from the
// internal/obs event bus, an HDR-style log-linear histogram for
// per-message completion times, orchestration spans over sweep jobs,
// and the run report that carries a sweep's aggregates once it ends.
//
// The package deliberately sits beside internal/obs, not inside the
// simulation: samplers are pure bus consumers, so attaching one never
// schedules an event, never perturbs a trajectory, and a run with
// telemetry off pays only the bus's disabled-publish mask check —
// the same zero-cost-when-off argument the flight recorder makes
// (BenchmarkSamplerDetached asserts 0 allocs/op).
package telemetry

import (
	"math"
	"math/bits"
)

// histSubBits is the log-linear resolution: every power-of-two major
// bucket splits into 2^histSubBits linear sub-buckets, bounding the
// relative quantile error at 2^-histSubBits = 6.25%.
const histSubBits = 4

const (
	histSubBuckets = 1 << histSubBits
	histBuckets    = 64 * histSubBuckets
)

// Hist is an HDR-style log-linear histogram over non-negative int64
// values (the telemetry layer records picoseconds of simulated time and
// nanoseconds of wall time). Recording is a shift, a mask and two adds;
// quantiles reconstruct bucket upper bounds, so any reported percentile
// is within one sub-bucket (≤ 6.25% relative error) of the true value.
// The zero value is ready to use.
type Hist struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     uint64
	min     int64 // exact smallest recorded value; valid when count > 0
	max     int64 // exact largest recorded value
}

// histIndex maps a value to its bucket.
func histIndex(v int64) int {
	if v < histSubBuckets {
		// Values below one full sub-bucket row are exact.
		return int(v)
	}
	major := bits.Len64(uint64(v)) - 1 // >= histSubBits
	shift := uint(major - histSubBits)
	return (major-histSubBits+1)*histSubBuckets + int((uint64(v)>>shift)&(histSubBuckets-1))
}

// histUpper returns the largest value a bucket holds — the bound the
// quantiles report. The top bucket row (major 63) exceeds int64 and
// clamps to MaxInt64.
func histUpper(idx int) int64 {
	if idx < histSubBuckets {
		return int64(idx)
	}
	major := idx/histSubBuckets + histSubBits - 1
	sub := uint64(idx % histSubBuckets)
	width := uint64(1) << uint(major-histSubBits)
	u := uint64(1)<<uint(major) + (sub+1)*width - 1
	if major > 63 || u > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(u)
}

// Record adds one value (negative values clamp to zero).
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[histIndex(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	h.count++
	h.sum += uint64(v)
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded values.
func (h *Hist) Count() uint64 { return h.count }

// Mean returns the mean recorded value (0 when empty).
func (h *Hist) Mean() int64 {
	if h.count == 0 {
		return 0
	}
	return int64(h.sum / h.count)
}

// Max returns the largest recorded value.
func (h *Hist) Max() int64 { return h.max }

// Min returns the smallest recorded value (0 when empty).
func (h *Hist) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Quantile returns an upper bound on the q-quantile (q in [0,1]): the
// top of the bucket where the cumulative count crosses q·count, within
// one sub-bucket of the true order statistic. The endpoints are exact:
// Quantile(0) is the recorded minimum and Quantile(1) the recorded
// maximum, and every result is clamped into [min, max] so a reported
// percentile never exceeds a value that was actually recorded (a bucket
// upper bound can otherwise overshoot). Out-of-range q clamps to the
// endpoints; an empty histogram returns 0.
func (h *Hist) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(q * float64(h.count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		cum += n
		if cum >= target {
			u := histUpper(i)
			if u > h.max {
				u = h.max
			}
			if u < h.min {
				u = h.min
			}
			return u
		}
	}
	return h.max
}

// Merge adds other's samples into h.
func (h *Hist) Merge(other *Hist) {
	if other.count == 0 {
		return
	}
	for i, n := range other.buckets {
		h.buckets[i] += n
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset clears the histogram.
func (h *Hist) Reset() { *h = Hist{} }

// HistSnapshot is the JSON form of a histogram: the percentile summary
// the RunReport carries. Values are microseconds
// when the histogram recorded picoseconds of simulated time (the
// caller scales; see Sampler and Tracker).
type HistSnapshot struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// snapshot summarizes the histogram with every value scaled by scale.
func (h *Hist) snapshot(scale float64) HistSnapshot {
	return HistSnapshot{
		Count: h.count,
		Mean:  float64(h.Mean()) * scale,
		P50:   float64(h.Quantile(0.50)) * scale,
		P90:   float64(h.Quantile(0.90)) * scale,
		P99:   float64(h.Quantile(0.99)) * scale,
		Max:   float64(h.max) * scale,
	}
}

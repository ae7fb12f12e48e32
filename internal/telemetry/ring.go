package telemetry

// RingCap is the fixed capacity of every time-series ring: enough points
// to draw a run's curve smoothly, bounded so that an arbitrarily long
// run holds a sliding window rather than growing without limit.
const RingCap = 512

// Ring is a fixed-capacity time-series ring buffer of (time, value)
// points. Pushing beyond capacity overwrites the oldest point. The zero
// value is ready to use.
type Ring struct {
	t     [RingCap]float64 // microseconds of simulated time
	v     [RingCap]float64
	start int
	n     int
}

// Push appends one point (tUS in simulated microseconds).
func (r *Ring) Push(tUS, v float64) {
	i := (r.start + r.n) % RingCap
	if r.n == RingCap {
		r.start = (r.start + 1) % RingCap
		r.n--
	}
	r.t[i], r.v[i] = tUS, v
	r.n++
}

// Len returns the number of held points.
func (r *Ring) Len() int { return r.n }

// Last returns the most recent value (0 when empty).
func (r *Ring) Last() float64 {
	if r.n == 0 {
		return 0
	}
	return r.v[(r.start+r.n-1)%RingCap]
}

// Series is the JSON form of a ring: parallel time/value arrays ordered
// oldest to newest, ready for a sparkline.
type Series struct {
	TUS []float64 `json:"t_us"`
	V   []float64 `json:"v"`
}

// Snapshot copies the ring's points out in chronological order.
func (r *Ring) Snapshot() Series {
	s := Series{TUS: make([]float64, r.n), V: make([]float64, r.n)}
	for i := 0; i < r.n; i++ {
		j := (r.start + i) % RingCap
		s.TUS[i] = r.t[j]
		s.V[i] = r.v[j]
	}
	return s
}

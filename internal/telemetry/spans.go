package telemetry

import (
	"math"
	"sync"
	"time"
)

// recentJobs bounds the finished-jobs ring in SweepStats.
const recentJobs = 64

// JobSpan is one finished job in the recent ring.
type JobSpan struct {
	Name   string  `json:"name"`
	Worker int     `json:"worker"`
	MS     float64 `json:"ms"`
	Events uint64  `json:"events,omitempty"`
	Cached bool    `json:"cached,omitempty"`
	Err    string  `json:"err,omitempty"`
}

// ActiveJob is one currently running job.
type ActiveJob struct {
	Name   string  `json:"name"`
	Worker int     `json:"worker"`
	MS     float64 `json:"ms"`
}

// SweepStats is the orchestration view of a sweep: progress, throughput,
// worker utilization and the job-latency distribution. Every simulation
// runs once — a failure aborts the sweep — so the `retries` and
// `quarantined` counts of earlier run reports are gone; readers of
// ibcc.run-report/1 ignore absent fields.
type SweepStats struct {
	Total  int `json:"total"`
	Done   int `json:"done"`
	Failed int `json:"failed"`
	Cached int `json:"cached"`
	Active int `json:"active"`
	// CorruptArtifacts counts stored artifacts that failed validation
	// and were moved aside instead of being trusted.
	CorruptArtifacts int `json:"corrupt_artifacts,omitempty"`

	Events       uint64  `json:"events"`
	ElapsedMS    float64 `json:"elapsed_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
	// ETAMS extrapolates the remaining jobs at the observed completion
	// rate; 0 until at least one job finishes or when Total is unset.
	ETAMS float64 `json:"eta_ms"`

	// Job wall-time distribution (ms), cached hits included.
	JobMS HistSnapshot `json:"job_ms"`

	Workers int `json:"workers"`
	// WorkerUtil is the busy fraction across all workers since the
	// tracker started, in [0,1].
	WorkerUtil float64 `json:"worker_util"`

	ActiveJobs []ActiveJob `json:"active_jobs,omitempty"`
	Recent     []JobSpan   `json:"recent,omitempty"`
}

type span struct {
	name   string
	worker int
	start  time.Time
}

// Tracker collects orchestration spans: every sweep job reports Begin
// when a worker picks it up and End when it finishes. Names are labels,
// not identities: sweeps sharing a tracker may repeat them. All methods
// are safe for concurrent use and no-ops on a nil *Tracker, so wiring
// it through the sweep funnel costs one nil check per job.
type Tracker struct {
	mu      sync.Mutex
	start   time.Time
	total   int
	done    int
	failed  int
	cached  int
	corrupt int
	events  uint64
	nextID  int
	active  map[int]*span
	jobHist Hist // nanoseconds of wall time
	busy    map[int]time.Duration
	recent  []JobSpan
}

// NewTracker returns an empty tracker; the elapsed clock starts now.
func NewTracker() *Tracker {
	return &Tracker{
		start:  time.Now(),
		active: make(map[int]*span),
		busy:   make(map[int]time.Duration),
	}
}

// AddTotal declares n more jobs (for progress and ETA); a run of several
// sweeps against one tracker declares each as it starts.
func (t *Tracker) AddTotal(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total += n
	t.mu.Unlock()
}

// Begin opens a span for job name on the given worker and returns its
// id (-1 on a nil tracker; End ignores it).
func (t *Tracker) Begin(name string, worker int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	id := t.nextID
	t.active[id] = &span{name: name, worker: worker, start: time.Now()}
	return id
}

// End closes span id: events is the run's executed event count, cached
// marks an artifact-cache hit, err is empty on success.
func (t *Tracker) End(id int, events uint64, cached bool, err string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, ok := t.active[id]
	if !ok {
		return
	}
	delete(t.active, id)
	wall := time.Since(sp.start)
	t.busy[sp.worker] += wall
	t.jobHist.Record(wall.Nanoseconds())
	t.events += events
	if err != "" {
		t.failed++
	} else {
		t.done++
	}
	if cached {
		t.cached++
	}
	t.recent = append(t.recent, JobSpan{
		Name: sp.name, Worker: sp.worker, MS: wall.Seconds() * 1e3,
		Events: events, Cached: cached, Err: err,
	})
	if len(t.recent) > recentJobs {
		t.recent = t.recent[len(t.recent)-recentJobs:]
	}
}

// CorruptArtifact records that a stored artifact failed validation and
// was quarantined instead of being substituted for a run.
func (t *Tracker) CorruptArtifact(path string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.corrupt++
	t.mu.Unlock()
}

// Stats returns the current sweep view; nil trackers return the zero
// value.
func (t *Tracker) Stats() SweepStats {
	if t == nil {
		return SweepStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	elapsed := time.Since(t.start)
	workers := make(map[int]bool, len(t.busy))
	for w := range t.busy {
		workers[w] = true
	}
	for _, sp := range t.active {
		workers[sp.worker] = true
	}
	st := SweepStats{
		Total: t.total, Done: t.done, Failed: t.failed, Cached: t.cached,
		Active: len(t.active), CorruptArtifacts: t.corrupt,
		Events:    t.events,
		ElapsedMS: elapsed.Seconds() * 1e3,
		JobMS:     t.jobHist.snapshot(1e-6),
		Workers:   len(workers),
	}
	// Rate and ETA guards: a fresh tracker has elapsed ≈ 0 and
	// finished == 0, and encoding/json refuses ±Inf/NaN, so an
	// unguarded division here would break the run report of a sweep
	// interrupted just after it started. Divide only when both denominators
	// are strictly positive, and sanitize the end result regardless.
	if sec := elapsed.Seconds(); sec > 0 {
		st.EventsPerSec = float64(t.events) / sec
		finished := t.done + t.failed
		if t.total > 0 && finished > 0 && finished < t.total {
			st.ETAMS = sec * 1e3 * float64(t.total-finished) / float64(finished)
		}
	}
	if st.Workers > 0 && elapsed > 0 {
		var busy time.Duration
		for _, b := range t.busy {
			busy += b
		}
		// Active spans count as busy time too.
		for _, sp := range t.active {
			busy += time.Since(sp.start)
		}
		if util := busy.Seconds() / (elapsed.Seconds() * float64(st.Workers)); util < 1 {
			st.WorkerUtil = util
		} else {
			st.WorkerUtil = 1
		}
	}
	for _, sp := range t.active {
		st.ActiveJobs = append(st.ActiveJobs, ActiveJob{
			Name: sp.name, Worker: sp.worker, MS: time.Since(sp.start).Seconds() * 1e3,
		})
	}
	st.Recent = append([]JobSpan(nil), t.recent...)
	st.sanitize()
	return st
}

// sanitize zeroes any non-finite float field so the stats always
// marshal: encoding/json errors on ±Inf/NaN, and a monitoring endpoint
// must degrade to a zero reading, never to a failed poll.
func (st *SweepStats) sanitize() {
	for _, f := range []*float64{&st.ElapsedMS, &st.EventsPerSec, &st.ETAMS, &st.WorkerUtil} {
		if math.IsInf(*f, 0) || math.IsNaN(*f) {
			*f = 0
		}
	}
}

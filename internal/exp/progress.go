package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
)

// Reporter observes a batch's lifecycle. Implementations need not be
// concurrency-safe when driven by a Runner (which serializes calls);
// Progress additionally locks internally so it can also be fed from
// core.Opts.OnResult hooks.
type Reporter interface {
	// Start announces the batch size (0 when unknown).
	Start(total int)
	// Done reports one completed job.
	Done(res JobResult)
	// Finish flushes any pending output.
	Finish()
}

// Progress is a line-oriented progress reporter: after every job it
// rewrites one status line ("done/total, events/sec, ETA") on its
// writer, typically stderr. It tolerates an unknown total (no ETA) and
// can be driven either as a Runner's Reporter or manually via Observe
// from a core sweep's OnResult hook. The events/sec figure says how busy
// the host is, not how fast the sweep is: it counts executed events, and
// the fabric schedules serializer-done and credit events only on demand,
// so a faster build can show a lower rate — compare sweeps by wall time
// or ns/packet.
type Progress struct {
	mu     sync.Mutex
	w      io.Writer
	total  int
	done   int
	failed int
	cached int
	events uint64
	start  time.Time
	jsonl  bool
}

// NewProgress returns a Progress writing to w, expecting total jobs
// (0 = unknown).
func NewProgress(w io.Writer, total int) *Progress {
	return &Progress{w: w, total: total, start: time.Now()}
}

// NewProgressJSONL returns a Progress in machine-readable mode: instead
// of rewriting one ANSI status line, every completed job appends a full
// JSON line, so a wrapper process (CI, a notebook, a supervisor) can
// track a sweep without terminal scraping.
func NewProgressJSONL(w io.Writer, total int) *Progress {
	return &Progress{w: w, total: total, start: time.Now(), jsonl: true}
}

// progressLine is the JSONL-mode record, one per completed job.
type progressLine struct {
	Done      int     `json:"done"`
	Total     int     `json:"total,omitempty"`
	Failed    int     `json:"failed,omitempty"`
	Cached    int     `json:"cached,omitempty"`
	Events    uint64  `json:"events"`
	ElapsedMS float64 `json:"elapsed_ms"`
	MEPS      float64 `json:"meps"`
	ETAMS     float64 `json:"eta_ms,omitempty"`
}

// Start implements Reporter; it (re)arms the clock and total.
func (p *Progress) Start(total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total = total
	p.done, p.failed, p.cached, p.events = 0, 0, 0, 0
	p.start = time.Now()
}

// Done implements Reporter.
func (p *Progress) Done(res JobResult) {
	var events uint64
	if res.Result != nil {
		events = res.Result.Events
	}
	p.observe(events, res.Cached, res.Err != nil)
}

// Observe records one completed simulation outside a Runner (the
// core.Opts.OnResult signature adapts directly:
// func(s, r, cached) { p.Observe(r.Events, cached) }).
func (p *Progress) Observe(events uint64, cached bool) {
	p.observe(events, cached, false)
}

func (p *Progress) observe(events uint64, cached, failed bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	p.events += events
	if cached {
		p.cached++
	}
	if failed {
		p.failed++
	}
	p.line()
}

// Events returns the total simulated events observed so far.
func (p *Progress) Events() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.events
}

// Finish implements Reporter: it terminates the status line (JSONL
// lines are already complete).
func (p *Progress) Finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done > 0 && !p.jsonl {
		fmt.Fprintln(p.w)
	}
}

// line emits one progress update; the caller holds p.mu.
func (p *Progress) line() {
	elapsed := time.Since(p.start)
	rate := float64(p.events) / elapsed.Seconds() / 1e6
	if p.jsonl {
		rec := progressLine{
			Done: p.done, Total: p.total, Failed: p.failed, Cached: p.cached,
			Events: p.events, ElapsedMS: elapsed.Seconds() * 1e3, MEPS: rate,
		}
		if p.total > 0 && p.done > 0 && p.done < p.total {
			rec.ETAMS = elapsed.Seconds() * 1e3 / float64(p.done) * float64(p.total-p.done)
		}
		data, err := json.Marshal(&rec)
		if err == nil {
			fmt.Fprintf(p.w, "%s\n", data)
		}
		return
	}
	fmt.Fprintf(p.w, "\r\x1b[K%s", p.status(elapsed, rate))
}

func (p *Progress) status(elapsed time.Duration, rate float64) string {
	var s string
	if p.total > 0 {
		s = fmt.Sprintf("[%d/%d]", p.done, p.total)
	} else {
		s = fmt.Sprintf("[%d]", p.done)
	}
	s += fmt.Sprintf(" %v, %.1fM events/s", elapsed.Round(time.Second), rate)
	if p.total > 0 && p.done > 0 && p.done < p.total {
		eta := time.Duration(float64(elapsed) / float64(p.done) * float64(p.total-p.done))
		s += fmt.Sprintf(", ETA %v", eta.Round(time.Second))
	}
	if p.cached > 0 {
		s += fmt.Sprintf(", %d cached", p.cached)
	}
	if p.failed > 0 {
		s += fmt.Sprintf(", %d FAILED", p.failed)
	}
	return s
}

// OnResult returns a core.Opts.OnResult hook feeding this Progress, so
// core sweep drivers report through the same status line as Runner
// batches.
func (p *Progress) OnResult() func(core.Scenario, *core.Result, bool) {
	return func(_ core.Scenario, r *core.Result, cached bool) {
		var events uint64
		if r != nil {
			events = r.Events
		}
		p.Observe(events, cached)
	}
}

package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress is a line-oriented progress reporter: after every job it
// rewrites one status line ("done/total, events/sec, ETA") on its
// writer, typically stderr, and keeps the counts a sweep reports when
// it ends. It tolerates an unknown total (no ETA) and is fed by Observe
// from a core sweep's OnResult hook (SweepOpts wires it); Observe and
// Finish are no-ops on a nil *Progress. The events/sec figure says how
// busy the host is, not how fast the sweep is: it counts executed
// events, and the fabric schedules serializer-done and credit events
// only on demand, so a faster build can show a lower rate — compare
// sweeps by wall time or ns/packet.
type Progress struct {
	mu     sync.Mutex
	w      io.Writer
	total  int
	done   int
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
	Cached    int     `json:"cached,omitempty"`
	Events    uint64  `json:"events"`
	ElapsedMS float64 `json:"elapsed_ms"`
	MEPS      float64 `json:"meps"`
	ETAMS     float64 `json:"eta_ms,omitempty"`
}

// Observe records one completed simulation: its executed events and
// whether it was served from an artifact.
func (p *Progress) Observe(events uint64, cached bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	p.events += events
	if cached {
		p.cached++
	}
	p.line()
}

// Counts returns the simulations observed so far, how many of them were
// served from artifacts, and their total simulated events.
func (p *Progress) Counts() (done, cached int, events uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.done, p.cached, p.events
}

// Finish terminates the status line (JSONL lines are already complete).
func (p *Progress) Finish() {
	if p == nil {
		return
	}
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
			Done: p.done, Total: p.total, Cached: p.cached,
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
	return s
}

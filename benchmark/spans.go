package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// operation (one scenario run, or one sweep pass) share Op, the id of
// that operation's root span; Parent is the span that caused this one
// (0 for a root). Times are ns since the recorder was created.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Derived marks a child whose duration was measured by a separate
	// call or summed over many calls (Count of them) and then placed at
	// its parent's start, so self time = parent − children still works.
	Derived bool   `json:"derived,omitempty"`
	Count   uint64 `json:"count,omitempty"`
}

// recorder keeps spans in memory and writes them out when the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent (0 opens a new operation).
func (r *recorder) begin(name string, parent int) int {
	id := len(r.spans) + 1
	op := id
	if parent != 0 {
		op = r.spans[parent-1].Op
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) end(id int) { r.spans[id-1].EndNs = int64(time.Since(r.t0)) }

func (r *recorder) duration(id int) time.Duration {
	return time.Duration(r.spans[id-1].EndNs - r.spans[id-1].StartNs)
}

// add records a finished span with explicit times.
func (r *recorder) add(name string, parent int, start, end time.Duration) {
	id := r.begin(name, parent)
	r.spans[id-1].StartNs, r.spans[id-1].EndNs = int64(start), int64(end)
}

// child attaches a derived span of duration d under parent.
func (r *recorder) child(name string, parent int, d time.Duration, count uint64) {
	start := r.spans[parent-1].StartNs
	id := r.begin(name, parent)
	sp := &r.spans[id-1]
	sp.StartNs, sp.EndNs, sp.Derived, sp.Count = start, start+int64(d), true, count
}

// write stores the spans as trace-<workload>.json under dir.
func (r *recorder) write(dir, workload string, seed uint64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

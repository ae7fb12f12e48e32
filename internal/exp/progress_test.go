package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestProgressReporter(t *testing.T) {
	var sb strings.Builder
	p := NewProgress(&sb, 2)
	p.Observe(1000, false)
	p.Observe(1000, true)
	p.Finish()
	out := sb.String()
	if !strings.Contains(out, "[1/2]") || !strings.Contains(out, "[2/2]") {
		t.Fatalf("progress output missing counters:\n%q", out)
	}
	if !strings.Contains(out, "events/s") || !strings.Contains(out, "1 cached") {
		t.Fatalf("progress output missing rate or cache count:\n%q", out)
	}
	if done, cached, events := p.Counts(); done != 2 || cached != 1 || events != 2000 {
		t.Fatalf("counts = %d done, %d cached, %d events", done, cached, events)
	}
	// A sweep without a progress line passes nil.
	var none *Progress
	none.Observe(1, false)
	none.Finish()
}

// TestProgressJSONL checks the machine-readable progress mode: one
// parseable JSON object per completed job with the documented fields,
// and no trailing ANSI status line.
func TestProgressJSONL(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgressJSONL(&buf, 3)
	for i := 0; i < 3; i++ {
		p.Observe(10, false)
	}
	p.Finish()
	out := strings.TrimRight(buf.String(), "\n")
	if strings.Contains(out, "\r") || strings.Contains(out, "\x1b") {
		t.Fatalf("JSONL output contains terminal control codes: %q", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3: %q", len(lines), out)
	}
	for i, line := range lines {
		var rec struct {
			Done      int     `json:"done"`
			Total     int     `json:"total"`
			Events    uint64  `json:"events"`
			ElapsedMS float64 `json:"elapsed_ms"`
			MEPS      float64 `json:"meps"`
			ETAMS     float64 `json:"eta_ms"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v: %q", i, err, line)
		}
		if rec.Done != i+1 || rec.Total != 3 {
			t.Fatalf("line %d progress %d/%d", i, rec.Done, rec.Total)
		}
		if rec.Events != uint64(10*(i+1)) {
			t.Fatalf("line %d events = %d", i, rec.Events)
		}
		if rec.ElapsedMS < 0 || rec.MEPS < 0 {
			t.Fatalf("line %d negative rates: %+v", i, rec)
		}
		if i < 2 && rec.ETAMS < 0 {
			t.Fatalf("line %d negative ETA", i)
		}
		if i == 2 && rec.ETAMS != 0 {
			t.Fatalf("final line carries an ETA: %+v", rec)
		}
	}
}

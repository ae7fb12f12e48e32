package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// emitAllKinds drives one event of every kind through the bus.
func emitAllKinds(b *Bus) {
	p := pkt(1, 2)
	b.QueueSampled(1000, 3, 4, true, 0, 8192)
	b.PacketSent(2000, true, 3, 4, p)
	b.FECNMarked(3000, 3, 4, true, p, 9000, 64)
	b.PacketDelivered(4000, 2, p)
	b.BECNReturned(5000, 1, 2, nil)
	b.CCTIChanged(6000, 1, 2, 0, 4)
	b.CreditStalled(7000, true, 3, 4, 0, 10, 2094)
	b.PacketSent(8000, false, 1, 0, p)
	b.LinkDown(9000, true, 3, 4)
	b.LinkUp(10000, true, 3, 4)
	b.PacketDropped(11000, true, 3, 4, p, 0, p.WireBytes())
	b.PacketDropped(12000, true, 3, 4, nil, 1, 2094) // lost credit update
	last := pkt(1, 2)
	last.MsgID, last.MsgSeq, last.MsgPackets = 5, 0, 1
	last.InjectTime = 12500
	b.MsgCompleted(13000, 2, last)
}

// TestChromeTraceValid checks the exporter structurally: the output is
// one valid JSON document in the trace_event format Perfetto loads —
// a traceEvents array whose entries all carry a name, a known phase,
// and (for non-metadata phases) a numeric timestamp.
func TestChromeTraceValid(t *testing.T) {
	var sb strings.Builder
	b := New()
	tr := NewChromeTracer(&sb)
	tr.Attach(b)
	emitAllKinds(b)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	phases := map[string]int{}
	for i, ev := range doc.TraceEvents {
		name, _ := ev["name"].(string)
		ph, _ := ev["ph"].(string)
		if name == "" {
			t.Fatalf("event %d has no name: %v", i, ev)
		}
		switch ph {
		case "M": // metadata: needs pid and an args.name
			if _, ok := ev["pid"].(float64); !ok {
				t.Fatalf("metadata event %d without pid: %v", i, ev)
			}
		case "C", "i":
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("event %d without numeric ts: %v", i, ev)
			}
			if _, ok := ev["pid"].(float64); !ok {
				t.Fatalf("event %d without pid: %v", i, ev)
			}
		default:
			t.Fatalf("event %d has unexpected phase %q", i, ph)
		}
		phases[ph]++
	}
	// All three shapes must be present: track naming, counters,
	// instants.
	for _, ph := range []string{"M", "C", "i"} {
		if phases[ph] == 0 {
			t.Fatalf("no %q events in trace (%v)", ph, phases)
		}
	}
	if tr.Events() == 0 {
		t.Fatal("event counter not advanced")
	}
}

// TestChromeTraceTracks checks the port/HCA → process/thread mapping:
// switch and host ids live in disjoint pid spaces and each port gets a
// named thread track.
func TestChromeTraceTracks(t *testing.T) {
	var sb strings.Builder
	b := New()
	tr := NewChromeTracer(&sb)
	tr.Attach(b)
	p := pkt(1, 2)
	b.PacketSent(1, true, 5, 2, p)  // switch 5 port 2
	b.PacketSent(2, false, 5, 0, p) // hca 5: same node id, distinct pid
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"switch 5"`, `"hca 5"`, `"port 2"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s:\n%s", want, out)
		}
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	pids := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		if pid, ok := ev["pid"].(float64); ok {
			pids[pid] = true
		}
	}
	if !pids[float64(chromeSwitchPIDBase+5)] || !pids[5] {
		t.Fatalf("pid namespaces collapsed: %v", pids)
	}
}

// TestChromeTraceEmpty: a trace with no events is still a loadable
// document.
func TestChromeTraceEmpty(t *testing.T) {
	var sb strings.Builder
	tr := NewChromeTracer(&sb)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("empty trace invalid: %v\n%s", err, sb.String())
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("unexpected events: %v", doc.TraceEvents)
	}
}

func TestJSONLWriter(t *testing.T) {
	var sb strings.Builder
	b := New()
	w := NewJSONLWriter(&sb)
	w.Attach(b)
	emitAllKinds(b)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 13 {
		t.Fatalf("lines = %d, want 13:\n%s", len(lines), sb.String())
	}
	if w.Events() != 13 {
		t.Fatalf("Events() = %d", w.Events())
	}
	kinds := map[string]bool{}
	for i, ln := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %d invalid JSON: %v: %s", i, err, ln)
		}
		k, _ := rec["kind"].(string)
		if k == "" {
			t.Fatalf("line %d has no kind: %s", i, ln)
		}
		kinds[k] = true
		if _, ok := rec["t_us"].(float64); !ok {
			t.Fatalf("line %d has no t_us: %s", i, ln)
		}
	}
	for k := Kind(0); k < NumKinds; k++ {
		if !kinds[k.String()] {
			t.Fatalf("kind %v missing from log (%v)", k, kinds)
		}
	}
	// Packet-scoped lines carry the packet type; the FECN mark line
	// carries the queue state that triggered it.
	if !strings.Contains(sb.String(), `"type":"data"`) {
		t.Fatal("no packet type recorded")
	}
	if !strings.Contains(sb.String(), `"queued":9000`) {
		t.Fatal("mark queue depth not recorded")
	}
}

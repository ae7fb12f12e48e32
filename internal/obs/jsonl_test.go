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

// TestJSONLWriter: the log writes one JSON line per event, every kind
// included, each with its kind, time and the fields its kind carries.
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

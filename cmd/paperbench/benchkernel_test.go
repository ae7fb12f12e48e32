package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The packet lifecycle schedules no more events per delivered packet
// than the committed BENCH_kernel.json records. Both figures are
// simulated counts, exact on every host, so any rise means events that
// do nothing are being scheduled again.
func TestLifecycleEventsPerPacket(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_kernel.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed, fresh kernelReport
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatalf("BENCH_kernel.json: %v", err)
	}
	if err := benchLifecycle(&fresh); err != nil {
		t.Fatal(err)
	}
	b, f := committed.Lifecycle, fresh.Lifecycle
	if b.EventsPerPacket <= 0 {
		t.Fatal("BENCH_kernel.json: lifecycle.events_per_packet missing (paperbench bench-kernel writes it)")
	}
	if f.EventsPerPacket > b.EventsPerPacket {
		t.Errorf("%s: %.4f events/packet (%d events), committed %.4f (%d events)",
			f.Scenario, f.EventsPerPacket, f.Events, b.EventsPerPacket, b.Events)
	}
	t.Logf("%s: %d events, %.4f events/packet; committed %d, %.4f", f.Scenario, f.Events, f.EventsPerPacket, b.Events, b.EventsPerPacket)
}

// BENCH_history.json is append-only: a new row keeps every existing row
// byte for byte, however it was written, and a file that is not a JSON
// array is an error that leaves it as it was.
func TestBenchHistoryIsAppendOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_history.json")
	row := map[string]float64{"ns_per_event": 30}
	if err := appendHistory(path, row); err != nil {
		t.Fatalf("first row of a missing ledger: %v", err)
	}
	if data, _ := os.ReadFile(path); string(data) != "[\n  {\n    \"ns_per_event\": 30\n  }\n]\n" {
		t.Fatalf("new ledger:\n%s", data)
	}
	committed, err := os.ReadFile(filepath.Join("..", "..", "BENCH_history.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, committed, 0o644); err != nil {
		t.Fatal(err)
	}
	var before []json.RawMessage
	if err := json.Unmarshal(committed, &before); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := appendHistory(path, row); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var after []json.RawMessage
	if err := json.Unmarshal(got, &after); err != nil || len(after) != len(before)+25 {
		t.Fatalf("%d rows after 25 appends to %d: %v", len(after), len(before), err)
	}
	if kept := bytes.TrimSuffix(committed, []byte("\n]\n")); !bytes.HasPrefix(got, kept) {
		t.Fatalf("appending rewrote the existing rows; ledger now begins\n%s", got[:min(len(got), 400)])
	}

	for _, bad := range []string{"not json", `{"rows": []}`, "[{\"ns_per_event\": 30},"} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		err := appendHistory(path, row)
		if data, _ := os.ReadFile(path); err == nil || string(data) != bad {
			t.Errorf("ledger %q: err %v, file now %q", bad, err, data)
		} else if !strings.Contains(err.Error(), path) {
			t.Errorf("ledger %q: error %q does not name the file", bad, err)
		}
	}
}

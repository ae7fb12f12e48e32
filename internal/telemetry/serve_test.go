package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestServerMetricsJSON(t *testing.T) {
	hub := NewHub(0)
	tr := NewTracker()
	tr.AddTotal(2)
	id := tr.Begin("cell-1", 0)
	s := hub.StartRun("cell-1")
	s.completion.Record(2_000_000) // 2 µs
	hub.FinishRun(s)
	tr.End(id, 123, false, "")

	srv := httptest.NewServer(NewServer(hub, tr).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if m.GeneratedAt == "" {
		t.Fatalf("no timestamp")
	}
	if m.Sweep == nil || m.Sweep.Done != 1 || m.Sweep.Total != 2 || m.Sweep.Events != 123 {
		t.Fatalf("sweep section: %+v", m.Sweep)
	}
	if m.Telemetry == nil || m.Telemetry.Runs != 1 || m.Telemetry.Completion.Count != 1 {
		t.Fatalf("telemetry section: %+v", m.Telemetry)
	}
	if m.Telemetry.Live == nil || !m.Telemetry.LiveDone {
		t.Fatalf("live section: %+v", m.Telemetry)
	}
}

func TestServerDashboard(t *testing.T) {
	srv := httptest.NewServer(NewServer(nil, nil).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"<!doctype html>", "/metrics.json", "hotspot_gbps", "hottest ports"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	if resp, err := http.Get(srv.URL + "/nope"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path not 404")
	}
}

func TestServerStartEphemeral(t *testing.T) {
	sv := NewServer(nil, NewTracker())
	addr, err := sv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer sv.Close()
	resp, err := http.Get("http://" + addr + "/metrics.json")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if m.Sweep == nil || m.Telemetry != nil {
		t.Fatalf("sections: %+v", m)
	}
}

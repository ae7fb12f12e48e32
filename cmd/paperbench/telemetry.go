package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	ibcc "repro"
)

// liveTelemetry bundles the optional observability surface of a
// paperbench invocation: the in-sim telemetry hub, the orchestration
// span tracker, the live HTTP dashboard and the end-of-run report.
// The zero struct (no -serve / -report) is a no-op everywhere — hub and
// spans are nil-safe in RunOpts — so the call sites wire it
// unconditionally.
type liveTelemetry struct {
	hub    *ibcc.TelemetryHub
	spans  *ibcc.SpanTracker
	srv    *ibcc.TelemetryServer
	addr   string
	probe  bool
	report string

	mu        sync.Mutex // guards probeErr
	probeOnce sync.Once
	probeErr  error
}

// newLiveTelemetry interprets the -serve / -serve-probe / -report
// flags. The hub and tracker exist whenever any of them is set; the
// HTTP server only with -serve.
func newLiveTelemetry(serveAddr string, probe bool, report string) (*liveTelemetry, error) {
	t := &liveTelemetry{probe: probe, report: report}
	if probe && serveAddr == "" {
		return nil, fmt.Errorf("-serve-probe requires -serve")
	}
	if serveAddr == "" && report == "" {
		return t, nil
	}
	t.hub = ibcc.NewTelemetryHub(0)
	t.spans = ibcc.NewSpanTracker()
	if serveAddr != "" {
		t.srv = ibcc.NewTelemetryServer(t.hub, t.spans)
		addr, err := t.srv.Start(serveAddr)
		if err != nil {
			return nil, fmt.Errorf("-serve: %w", err)
		}
		t.addr = addr
		log.Printf("telemetry: live dashboard on http://%s/", addr)
	}
	return t, nil
}

// midProbe fetches /metrics.json once, mid-sweep, from an OnResult
// hook — the CI evidence that the endpoint serves live state while
// simulations are still running.
func (t *liveTelemetry) midProbe() {
	if t.srv == nil || !t.probe {
		return
	}
	t.probeOnce.Do(func() {
		if err := t.fetchMetrics(); err != nil {
			t.mu.Lock()
			t.probeErr = err
			t.mu.Unlock()
		}
	})
}

// fetchMetrics GETs and structurally validates /metrics.json.
func (t *liveTelemetry) fetchMetrics() error {
	resp, err := http.Get("http://" + t.addr + "/metrics.json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics.json: HTTP %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var m struct {
		GeneratedAt string                     `json:"generated_at"`
		Sweep       *ibcc.SweepStats           `json:"sweep"`
		Telemetry   *ibcc.TelemetryHubSnapshot `json:"telemetry"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("/metrics.json: %v", err)
	}
	if m.GeneratedAt == "" || m.Sweep == nil || m.Telemetry == nil {
		return fmt.Errorf("/metrics.json: incomplete document: %s", data)
	}
	return nil
}

// finish runs the final probe and writes the unified run report.
// kind is one of the ibcc.Report* constants; payload is the raw
// mode-specific JSON artifact (degradation curve, tournament table).
func (t *liveTelemetry) finish(kind, name string, radix, seeds int, payload []byte) error {
	if t.hub == nil {
		return nil
	}
	if t.probe {
		t.mu.Lock()
		err := t.probeErr
		t.mu.Unlock()
		if err != nil {
			return fmt.Errorf("serve-probe: %w", err)
		}
		if err := t.fetchMetrics(); err != nil {
			return fmt.Errorf("serve-probe: %w", err)
		}
		fmt.Printf("serve-probe: /metrics.json ok (http://%s/)\n", t.addr)
	}
	return t.writeReport(kind, name, radix, seeds, payload)
}

// drain is the SIGINT/SIGTERM path: flush the final metrics snapshot
// into the report (when -report is set) so an interrupted sweep still
// leaves its telemetry behind, then shut the dashboard down gracefully.
// Best-effort by design — drain runs on the way to a non-zero exit.
func (t *liveTelemetry) drain(name string, radix, seeds int) {
	if t.hub != nil {
		if err := t.writeReport(ibcc.ReportExperiments, name, radix, seeds, nil); err != nil {
			log.Print(err)
		}
	}
	t.close()
}

// writeReport writes the unified run report from the current tracker
// and hub state (no-op without -report).
func (t *liveTelemetry) writeReport(kind, name string, radix, seeds int, payload []byte) error {
	if t.report == "" {
		return nil
	}
	st := t.spans.Stats()
	snap := t.hub.Snapshot()
	rep := &ibcc.RunReport{
		Schema:      ibcc.RunReportSchema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Kind:        kind,
		Name:        name,
		Radix:       radix,
		Seeds:       seeds,
		Sweep:       &st,
		Telemetry:   &snap,
		Trend:       ibcc.LoadPerfTrend(".", st.EventsPerSec),
	}
	switch kind {
	case ibcc.ReportDegradation:
		rep.Degradation = payload
	case ibcc.ReportTournament:
		rep.Tournament = payload
	}
	if err := rep.Write(t.report); err != nil {
		return err
	}
	fmt.Printf("report : %s (%s, %d jobs, %.1fM events/s)\n",
		t.report, kind, st.Done+st.Failed, st.EventsPerSec/1e6)
	return nil
}

// close shuts the dashboard server down gracefully, giving an in-flight
// dashboard poll a moment to finish.
func (t *liveTelemetry) close() {
	if t.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := t.srv.Shutdown(ctx); err != nil {
		t.srv.Close()
	}
}

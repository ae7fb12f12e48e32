package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	ibcc "repro"
)

// startTelemetry opens the sweep's optional observability surface: the
// in-sim telemetry hub and the orchestration span tracker whenever
// -serve or -report is set, the live HTTP dashboard only with -serve.
// Without either, hub and spans stay nil — RunOpts treats them as off —
// and the methods below are no-ops.
func (sw *sweep) startTelemetry() error {
	if sw.serve == "" && sw.report == "" {
		return nil
	}
	sw.hub = ibcc.NewTelemetryHub(0)
	sw.spans = ibcc.NewSpanTracker()
	if sw.serve != "" {
		sw.srv = ibcc.NewTelemetryServer(sw.hub, sw.spans)
		addr, err := sw.srv.Start(sw.serve)
		if err != nil {
			return fmt.Errorf("-serve: %w", err)
		}
		sw.addr = addr
		log.Printf("telemetry: live dashboard on http://%s/", addr)
	}
	return nil
}

// midProbe fetches /metrics.json once, mid-sweep, from an OnResult
// hook — the CI evidence that the endpoint serves live state while
// simulations are still running.
func (sw *sweep) midProbe() {
	if sw.srv == nil || !sw.serveProbe {
		return
	}
	sw.probeOnce.Do(func() {
		if err := sw.fetchMetrics(); err != nil {
			sw.mu.Lock()
			sw.probeErr = err
			sw.mu.Unlock()
		}
	})
}

// fetchMetrics GETs and structurally validates /metrics.json.
func (sw *sweep) fetchMetrics() error {
	resp, err := http.Get("http://" + sw.addr + "/metrics.json")
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
func (sw *sweep) finish(kind string, payload []byte) error {
	if sw.srv != nil && sw.serveProbe {
		sw.mu.Lock()
		err := sw.probeErr
		sw.mu.Unlock()
		if err != nil {
			return fmt.Errorf("serve-probe: %w", err)
		}
		if err := sw.fetchMetrics(); err != nil {
			return fmt.Errorf("serve-probe: %w", err)
		}
		fmt.Fprintf(sw.w, "serve-probe: /metrics.json ok (http://%s/)\n", sw.addr)
	}
	return sw.writeReport(kind, payload)
}

// writeReport writes the unified run report from the current tracker
// and hub state (no-op without -report).
func (sw *sweep) writeReport(kind string, payload []byte) error {
	if sw.report == "" {
		return nil
	}
	st := sw.spans.Stats()
	snap := sw.hub.Snapshot()
	rep := &ibcc.RunReport{
		Schema:      ibcc.RunReportSchema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Kind:        kind,
		Name:        sw.name,
		Radix:       sw.radix,
		Seeds:       sw.seeds,
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
	if err := rep.Write(sw.report); err != nil {
		return err
	}
	fmt.Fprintf(sw.w, "report : %s (%s, %d jobs, %.1fM events/s)\n",
		sw.report, kind, st.Done+st.Failed, st.EventsPerSec/1e6)
	return nil
}

// stopServer shuts the dashboard server down gracefully, giving an
// in-flight dashboard poll a moment to finish.
func (sw *sweep) stopServer() {
	if sw.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := sw.srv.Shutdown(ctx); err != nil {
		sw.srv.Close()
	}
}

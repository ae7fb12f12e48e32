package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func validReport() *RunReport {
	return &RunReport{
		Schema:      ReportSchema,
		GeneratedAt: "2026-08-07T00:00:00Z",
		Kind:        ReportTournament,
		Name:        "smoke",
		Radix:       8,
		Seeds:       2,
		Sweep:       &SweepStats{Total: 4, Done: 4},
		Tournament:  json.RawMessage(`{"cells":[]}`),
	}
}

func TestReportValidate(t *testing.T) {
	if err := validReport().Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	cases := map[string]func(r *RunReport){
		"bad schema":        func(r *RunReport) { r.Schema = "ibcc.run-report/0" },
		"no generated_at":   func(r *RunReport) { r.GeneratedAt = "" },
		"bad kind":          func(r *RunReport) { r.Kind = "sweep" },
		"no name":           func(r *RunReport) { r.Name = "" },
		"missing payload":   func(r *RunReport) { r.Tournament = nil },
		"corrupt payload":   func(r *RunReport) { r.Tournament = json.RawMessage(`{"cells":`) },
		"degradation empty": func(r *RunReport) { r.Kind = ReportDegradation },
		"experiments sweep": func(r *RunReport) { r.Kind = ReportExperiments; r.Sweep = nil },
	}
	for name, mutate := range cases {
		r := validReport()
		mutate(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReportWriteAndValidateBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	if err := validReport().Write(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	r, err := ValidateReport(data)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if r.Kind != ReportTournament || r.Radix != 8 {
		t.Fatalf("round-tripped report: %+v", r)
	}
	bad := &RunReport{Schema: ReportSchema}
	if err := bad.Write(filepath.Join(t.TempDir(), "bad.json")); err == nil {
		t.Fatalf("invalid report written without error")
	}
	if _, err := ValidateReport([]byte("{")); err == nil {
		t.Fatalf("truncated JSON accepted")
	}
}

func TestLoadTrend(t *testing.T) {
	dir := t.TempDir()
	if tr := LoadTrend(dir, 0); tr != nil {
		t.Fatalf("empty dir with no sweep rate should yield nil trend, got %+v", tr)
	}
	if tr := LoadTrend(dir, 5e6); tr == nil || tr.SweepEventsPerS != 5e6 {
		t.Fatalf("sweep-only trend: %+v", tr)
	}

	kernel := `{
	  "generated_at": "2026-08-05T21:09:07Z",
	  "go_version": "go1.24.0",
	  "kernel": {"ns_per_event": 66.3, "events_per_sec": 15086630},
	  "speedup_steady": 3.12
	}`
	if err := os.WriteFile(filepath.Join(dir, "BENCH_kernel.json"), []byte(kernel), 0o644); err != nil {
		t.Fatal(err)
	}
	tr := LoadTrend(dir, 7543315) // exactly half the kernel rate
	if tr == nil || tr.Baseline == nil {
		t.Fatalf("trend missing baseline: %+v", tr)
	}
	if tr.Baseline.NsPerEvent != 66.3 || tr.Baseline.Speedup != 3.12 {
		t.Fatalf("baseline fields: %+v", tr.Baseline)
	}
	if tr.SweepVsKernelPct < 49.9 || tr.SweepVsKernelPct > 50.1 {
		t.Fatalf("sweep vs kernel = %v%%, want ~50", tr.SweepVsKernelPct)
	}

	histPath := filepath.Join(dir, "BENCH_history.json")
	for i := 0; i < HistoryKeep+5; i++ {
		p := BenchPoint{
			GeneratedAt:  "2026-08-07T00:00:00Z",
			NsPerEvent:   60 + float64(i),
			EventsPerSec: 1e9 / (60 + float64(i)),
		}
		if err := AppendHistory(histPath, p); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	tr = LoadTrend(dir, 0)
	if tr == nil || len(tr.History) != HistoryKeep {
		t.Fatalf("history not capped: %+v", tr)
	}
	// Ring keeps the last HistoryKeep points: ns/event 65..84, drift
	// 100·(84−65)/65.
	if tr.History[0].NsPerEvent != 65 || tr.History[HistoryKeep-1].NsPerEvent != 84 {
		t.Fatalf("ring window: first %v last %v", tr.History[0].NsPerEvent, tr.History[HistoryKeep-1].NsPerEvent)
	}
	want := 100 * (84.0 - 65.0) / 65.0
	if !near(tr.HistoryDriftPct, want, 1e-9) {
		t.Fatalf("drift = %v, want %v", tr.HistoryDriftPct, want)
	}

	// A paired run's workloads-only entry, as scripts/bench_pairs.sh
	// writes it, joins the ring without moving the kernel drift, and
	// the next kernel point keeps it whole.
	pair := `{"generated_at": "z", "workloads": {"uniform_r18": {"ns_per_packet": 1300, "allocs_per_op": 5686,
	  "peak_rss_mb": 11.3, "setup_s": 0.0005, "iqr": {"ns_per_packet": 40, "allocs_per_op": 0, "peak_rss_mb": 0.1, "setup_s": 0.0001},
	  "wins": {"ns_per_packet": 6, "allocs_per_op": 0, "peak_rss_mb": 3, "setup_s": 10}, "pairs": 10,
	  "parent": {"ns_per_packet": 1350, "allocs_per_op": 5686, "peak_rss_mb": 11.3, "setup_s": 0.002, "rev": "01ebf3d"}}}}`
	var row BenchPoint
	if err := json.Unmarshal([]byte(pair), &row); err != nil {
		t.Fatal(err)
	}
	if err := AppendHistory(histPath, row); err != nil {
		t.Fatal(err)
	}
	if tr = LoadTrend(dir, 0); !near(tr.HistoryDriftPct, 100*(84.0-66.0)/66.0, 1e-9) {
		t.Fatalf("drift with a workloads-only entry = %v", tr.HistoryDriftPct)
	}
	if err := AppendHistory(histPath, BenchPoint{GeneratedAt: "k", NsPerEvent: 66}); err != nil {
		t.Fatal(err)
	}
	tr = LoadTrend(dir, 0)
	w := tr.History[HistoryKeep-2].Workloads["uniform_r18"]
	if w.SetupS != 0.0005 || w.IQR == nil || w.IQR.NsPerPacket != 40 || w.Wins == nil || w.Wins.SetupS != 10 ||
		w.Pairs != 10 || w.Parent == nil || w.Parent.Rev != "01ebf3d" || w.Parent.SetupS != 0.002 {
		t.Fatalf("paired row lost in the ring: %+v", w)
	}
	if want := 100 * (66.0 - 67.0) / 67.0; !near(tr.HistoryDriftPct, want, 1e-9) {
		t.Fatalf("drift = %v, want %v (kernel points 67..84, then 66)", tr.HistoryDriftPct, want)
	}
}

func TestAppendHistoryCorruptRestarts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_history.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]WorkloadPoint{"sweep_obs_r12": {NsPerPacket: 1700, AllocsPerOp: 404e3, PeakRSSMB: 13}}
	if err := AppendHistory(path, BenchPoint{GeneratedAt: "x", NsPerEvent: 50, Workloads: e2e}); err != nil {
		t.Fatalf("append over corrupt file: %v", err)
	}
	// A later kernel-only point must not cost the earlier entry its
	// end-to-end medians.
	if err := AppendHistory(path, BenchPoint{GeneratedAt: "y", NsPerEvent: 49}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hist []BenchPoint
	if err := json.Unmarshal(data, &hist); err != nil || len(hist) != 2 {
		t.Fatalf("restarted ring: %v %+v", err, hist)
	}
	if hist[0].Workloads["sweep_obs_r12"] != e2e["sweep_obs_r12"] || hist[1].Workloads != nil {
		t.Fatalf("workload medians lost in the ring: %+v", hist)
	}
}

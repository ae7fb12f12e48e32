package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/ckpt"
)

// ReportSchema is the schema marker every RunReport carries; bump the
// suffix on breaking changes so downstream tooling can refuse documents
// it does not understand.
const ReportSchema = "ibcc.run-report/1"

// Report kinds.
const (
	ReportExperiments = "experiments"
	ReportDegradation = "degradation"
	ReportTournament  = "tournament"
)

// BenchPoint is one BENCH_history.json entry and trend comparison
// point. A kernel-benchmark measurement (paperbench bench-kernel) fills
// the fields that mirror the kernel section of BENCH_kernel.json.
// Workloads are the end-to-end benchmark's figures on the same tree
// (benchmark/README.md) — the numbers the synthetic kernel figure does
// not predict; scripts/bench_pairs.sh appends a workloads-only entry per
// paired run, and AppendHistory carries them through the ring.
type BenchPoint struct {
	GeneratedAt  string  `json:"generated_at"`
	GoVersion    string  `json:"go_version,omitempty"`
	NsPerEvent   float64 `json:"ns_per_event,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	Speedup      float64 `json:"speedup_steady,omitempty"`

	Workloads map[string]WorkloadPoint `json:"workloads,omitempty"`
}

// WorkloadPoint is one benchmark workload's end-to-end medians. A paired
// run adds, in the same shape, each metric's interquartile range and the
// pairs this side won (read lower than the other side), and nests the
// parent revision's figures from the same seeds.
type WorkloadPoint struct {
	NsPerPacket float64 `json:"ns_per_packet"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	PeakRSSMB   float64 `json:"peak_rss_mb"`
	SetupS      float64 `json:"setup_s,omitempty"`

	IQR    *WorkloadPoint `json:"iqr,omitempty"`
	Wins   *WorkloadPoint `json:"wins,omitempty"`
	Pairs  int            `json:"pairs,omitempty"`
	Rev    string         `json:"rev,omitempty"`
	Parent *WorkloadPoint `json:"parent,omitempty"`
}

// HistoryKeep is how many entries BENCH_history.json retains.
const HistoryKeep = 20

// Trend situates a sweep against the committed kernel benchmarks: the
// pinned BENCH_kernel.json measurement, the BENCH_history.json ring, and
// the ratio of this sweep's full-model event rate to the synthetic
// kernel ceiling (a utilization-style figure — the full model does real
// per-event work, so well under 100% is normal; a collapse flags a
// model-layer regression the kernel bench cannot see). The sweep rate
// counts executed events, so it is comparable only between builds that
// schedule the same events: eliding no-op events lowers it while the
// sweep gets faster.
type Trend struct {
	Baseline        *BenchPoint  `json:"baseline,omitempty"`
	History         []BenchPoint `json:"history,omitempty"`
	SweepEventsPerS float64      `json:"sweep_events_per_sec,omitempty"`
	// SweepVsKernelPct = 100 · sweep events/s ÷ kernel events/s.
	SweepVsKernelPct float64 `json:"sweep_vs_kernel_pct,omitempty"`
	// HistoryDriftPct = 100 · (latest − oldest) ÷ oldest ns/event over
	// the history ring (positive means the kernel got slower).
	HistoryDriftPct float64 `json:"history_drift_pct,omitempty"`
}

// RunReport is the unified machine-readable artifact a sweep writes:
// orchestration stats, aggregated telemetry, and the raw payloads of
// whatever mode ran, plus the kernel-bench trend. Mode payloads stay
// json.RawMessage so the telemetry layer does not import the packages
// that produce them.
type RunReport struct {
	Schema      string `json:"schema"`
	GeneratedAt string `json:"generated_at"`
	// Kind is one of the Report* constants.
	Kind  string `json:"kind"`
	Name  string `json:"name"`
	Radix int    `json:"radix,omitempty"`
	Seeds int    `json:"seeds,omitempty"`

	Sweep     *SweepStats  `json:"sweep,omitempty"`
	Telemetry *HubSnapshot `json:"telemetry,omitempty"`

	Degradation json.RawMessage `json:"degradation,omitempty"`
	Tournament  json.RawMessage `json:"tournament,omitempty"`

	Trend *Trend `json:"trend,omitempty"`
}

// validKinds is the closed set Validate accepts.
var validKinds = map[string]bool{
	ReportExperiments: true,
	ReportDegradation: true,
	ReportTournament:  true,
}

// Validate checks the report's structural invariants: the schema marker,
// the kind taxonomy, and that the mode named by Kind actually carries
// its payload.
func (r *RunReport) Validate() error {
	if r.Schema != ReportSchema {
		return fmt.Errorf("run-report: schema %q, want %q", r.Schema, ReportSchema)
	}
	if r.GeneratedAt == "" {
		return fmt.Errorf("run-report: missing generated_at")
	}
	if !validKinds[r.Kind] {
		return fmt.Errorf("run-report: unknown kind %q", r.Kind)
	}
	if r.Name == "" {
		return fmt.Errorf("run-report: missing name")
	}
	switch r.Kind {
	case ReportDegradation:
		if len(r.Degradation) == 0 {
			return fmt.Errorf("run-report: kind degradation without degradation payload")
		}
	case ReportTournament:
		if len(r.Tournament) == 0 {
			return fmt.Errorf("run-report: kind tournament without tournament payload")
		}
	case ReportExperiments:
		if r.Sweep == nil {
			return fmt.Errorf("run-report: kind experiments without sweep stats")
		}
	}
	for _, raw := range []json.RawMessage{r.Degradation, r.Tournament} {
		if len(raw) == 0 {
			continue
		}
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			return fmt.Errorf("run-report: embedded payload is not valid JSON: %v", err)
		}
	}
	return nil
}

// ValidateReport parses data as a RunReport and validates it — the CI
// smoke check's entry point.
func ValidateReport(data []byte) (*RunReport, error) {
	var r RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("run-report: %v", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Write validates the report and writes it as indented JSON, durably:
// it is also written on the signal-drain path, where a second Ctrl-C
// must find the old report or the new one, not half of it.
func (r *RunReport) Write(path string) error {
	if err := r.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return ckpt.WriteFileAtomic(path, append(data, '\n'))
}

// benchKernelFile mirrors the slice of BENCH_kernel.json the trend
// needs.
type benchKernelFile struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	Kernel      struct {
		NsPerEvent   float64 `json:"ns_per_event"`
		EventsPerSec float64 `json:"events_per_sec"`
	} `json:"kernel"`
	SpeedupSteady float64 `json:"speedup_steady"`
}

// LoadTrend builds the trend block from the committed benchmark
// artifacts in dir (BENCH_kernel.json, BENCH_history.json). Missing or
// unreadable files are tolerated — the trend reports whatever exists —
// and nil is returned when nothing does and no sweep rate was measured.
func LoadTrend(dir string, sweepEventsPerSec float64) *Trend {
	t := &Trend{SweepEventsPerS: sweepEventsPerSec}
	if data, err := os.ReadFile(filepath.Join(dir, "BENCH_kernel.json")); err == nil {
		var f benchKernelFile
		if json.Unmarshal(data, &f) == nil && f.Kernel.NsPerEvent > 0 {
			t.Baseline = &BenchPoint{
				GeneratedAt:  f.GeneratedAt,
				GoVersion:    f.GoVersion,
				NsPerEvent:   f.Kernel.NsPerEvent,
				EventsPerSec: f.Kernel.EventsPerSec,
				Speedup:      f.SpeedupSteady,
			}
			if f.Kernel.EventsPerSec > 0 && sweepEventsPerSec > 0 {
				t.SweepVsKernelPct = 100 * sweepEventsPerSec / f.Kernel.EventsPerSec
			}
		}
	}
	if data, err := os.ReadFile(filepath.Join(dir, "BENCH_history.json")); err == nil {
		var hist []BenchPoint
		if json.Unmarshal(data, &hist) == nil && len(hist) > 0 {
			t.History = hist
			// Drift is over the kernel measurements; a workloads-only
			// entry has no ns/event.
			var first, last float64
			for _, p := range hist {
				if p.NsPerEvent > 0 {
					if first == 0 {
						first = p.NsPerEvent
					}
					last = p.NsPerEvent
				}
			}
			if first > 0 {
				t.HistoryDriftPct = 100 * (last - first) / first
			}
		}
	}
	if t.Baseline == nil && t.History == nil && sweepEventsPerSec == 0 {
		return nil
	}
	return t
}

// AppendHistory appends p to the BENCH_history.json ring at path,
// keeping the last HistoryKeep entries. A missing or corrupt file starts
// a fresh ring.
func AppendHistory(path string, p BenchPoint) error {
	var hist []BenchPoint
	if data, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(data, &hist) // corrupt history restarts the ring
	}
	hist = append(hist, p)
	if len(hist) > HistoryKeep {
		hist = hist[len(hist)-HistoryKeep:]
	}
	data, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

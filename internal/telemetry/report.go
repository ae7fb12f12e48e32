package telemetry

import (
	"encoding/json"
	"fmt"

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
)

// RunReport is the unified machine-readable artifact a sweep writes:
// orchestration stats, aggregated telemetry, and the raw payload of
// whatever mode ran. Mode payloads stay json.RawMessage so the
// telemetry layer does not import the packages that produce them.
// Reports written before the live series and the kernel-bench trend
// were dropped still parse: their extra keys are ignored.
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
}

// validKinds is the closed set Validate accepts.
var validKinds = map[string]bool{
	ReportExperiments: true,
	ReportDegradation: true,
}

// Validate checks the report's structural invariants: the schema marker,
// the kind taxonomy, and that the mode named by Kind actually carries
// its payload — unless its sweep stats show an interrupt cut the sweep
// short, before the payload existed.
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
		unfinished := r.Sweep != nil && r.Sweep.Done+r.Sweep.Failed < r.Sweep.Total
		if len(r.Degradation) == 0 && !unfinished {
			return fmt.Errorf("run-report: kind degradation without degradation payload")
		}
	case ReportExperiments:
		if r.Sweep == nil {
			return fmt.Errorf("run-report: kind experiments without sweep stats")
		}
	}
	if len(r.Degradation) > 0 {
		var v any
		if err := json.Unmarshal(r.Degradation, &v); err != nil {
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

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

// ReportExperiments is the one report kind: the experiments and the
// scans write it.
const ReportExperiments = "experiments"

// RunReport is the unified machine-readable artifact a sweep writes:
// orchestration stats and aggregated telemetry. Reports written before
// the live series and the kernel-bench trend were dropped still parse:
// their extra keys are ignored.
type RunReport struct {
	Schema      string `json:"schema"`
	GeneratedAt string `json:"generated_at"`
	// Kind is ReportExperiments; any other kind is refused.
	Kind  string `json:"kind"`
	Name  string `json:"name"`
	Radix int    `json:"radix,omitempty"`
	Seeds int    `json:"seeds,omitempty"`

	Sweep     *SweepStats  `json:"sweep,omitempty"`
	Telemetry *HubSnapshot `json:"telemetry,omitempty"`
}

// Validate checks the report's structural invariants: the schema
// marker, the kind, the name and the sweep stats every sweep writes.
func (r *RunReport) Validate() error {
	if r.Schema != ReportSchema {
		return fmt.Errorf("run-report: schema %q, want %q", r.Schema, ReportSchema)
	}
	if r.GeneratedAt == "" {
		return fmt.Errorf("run-report: missing generated_at")
	}
	if r.Kind != ReportExperiments {
		return fmt.Errorf("run-report: unknown kind %q", r.Kind)
	}
	if r.Name == "" {
		return fmt.Errorf("run-report: missing name")
	}
	if r.Sweep == nil {
		return fmt.Errorf("run-report: kind experiments without sweep stats")
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

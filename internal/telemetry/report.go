package telemetry

import (
	"encoding/json"
	"fmt"
	"math"

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
	// Records are the paper's quantities the sweep measured.
	Records []Record `json:"records,omitempty"`
}

// Record is one quantity of one point of the paper's evaluation over
// seeds: ours in both windows, and the paper's value where it states
// one.
type Record struct {
	Exp      string   `json:"exp"`
	Series   string   `json:"series,omitempty"`
	Point    string   `json:"point"`
	Quantity string   `json:"quantity"`
	Seeds    []uint64 `json:"seeds"`
	// Steady excludes the warm-up; WholeRun spans the run from time 0,
	// the paper's protocol as inferred from fit.
	Steady   Window `json:"steady"`
	WholeRun Window `json:"whole_run"`
	Paper    *Paper `json:"paper,omitempty"`
}

// Window is one window's payload rates with CC off and on, the gain
// (CC on over CC off, per seed) and the wire rates.
type Window struct {
	Off     Stat `json:"off"`
	On      Stat `json:"on"`
	Gain    Stat `json:"gain"`
	WireOff Stat `json:"wire_off"`
	WireOn  Stat `json:"wire_on"`
}

// Stat is a mean over seeds with its 95 % confidence half-width.
type Stat struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
}

// Legs holds one value per column a paper value can sit in; zero is
// unstated.
type Legs struct {
	Off  float64 `json:"off,omitempty"`
	On   float64 `json:"on,omitempty"`
	Gain float64 `json:"gain,omitempty"`
}

// The provenances of a paper value: stated in the paper's text or
// tables, or read off one of its figures.
const (
	ProvText   = "text"
	ProvFigure = "figure"
)

// Paper is what the paper states for a record's quantity and how ours
// compares: Delta is relative, (ours − paper) / paper, of the whole-run
// wire rates and the gain; Verdict is "agrees" when every stated leg is
// within Tolerance, "disagrees" otherwise, or "not comparable: " and
// the reason, with Delta zero.
type Paper struct {
	Value      Legs    `json:"value"`
	Provenance string  `json:"provenance"`
	Source     string  `json:"source"`
	Tolerance  float64 `json:"tolerance"`
	Delta      Legs    `json:"delta"`
	Verdict    string  `json:"verdict"`
}

// validate checks a record's numbers: finite means, CIs >= 0, at least
// one seed, and a paper value's provenance and tolerance.
func (rec *Record) validate() error {
	if len(rec.Seeds) == 0 {
		return fmt.Errorf("no seeds")
	}
	for _, w := range []Window{rec.Steady, rec.WholeRun} {
		for _, st := range []Stat{w.Off, w.On, w.Gain, w.WireOff, w.WireOn} {
			if math.IsNaN(st.Mean) || math.IsInf(st.Mean, 0) || !(st.CI95 >= 0) || math.IsInf(st.CI95, 0) {
				return fmt.Errorf("mean %v ±%v", st.Mean, st.CI95)
			}
		}
	}
	if p := rec.Paper; p != nil && (p.Provenance != ProvText && p.Provenance != ProvFigure || !(p.Tolerance > 0)) {
		return fmt.Errorf("paper value of provenance %q, tolerance %v", p.Provenance, p.Tolerance)
	}
	return nil
}

// Validate checks the report's structural invariants: the schema
// marker, the kind, the name, the sweep stats every sweep writes, and
// every record.
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
	for i := range r.Records {
		if err := r.Records[i].validate(); err != nil {
			rec := &r.Records[i]
			return fmt.Errorf("run-report: record %d (%s %s %s): %v", i, rec.Exp, rec.Point, rec.Quantity, err)
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

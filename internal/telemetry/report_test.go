package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func validReport() *RunReport {
	return &RunReport{
		Schema:      ReportSchema,
		GeneratedAt: "2026-08-07T00:00:00Z",
		Kind:        ReportDegradation,
		Name:        "smoke",
		Radix:       8,
		Seeds:       2,
		Sweep:       &SweepStats{Total: 4, Done: 4},
		Degradation: json.RawMessage(`[]`),
	}
}

// TestReportValidate mutates a valid report one field at a time; each
// mutant must be refused by Validate and, written out as JSON, by
// ValidateReport, with the error naming what is wrong.
func TestReportValidate(t *testing.T) {
	if err := validReport().Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	cases := map[string]struct {
		mutate func(r *RunReport)
		want   string
	}{
		"bad schema":           {func(r *RunReport) { r.Schema = "ibcc.run-report/0" }, "schema"},
		"no generated_at":      {func(r *RunReport) { r.GeneratedAt = "" }, "generated_at"},
		"bad kind":             {func(r *RunReport) { r.Kind = "sweep" }, "unknown kind"},
		"tournament kind":      {func(r *RunReport) { r.Kind = "tournament" }, "unknown kind"},
		"no name":              {func(r *RunReport) { r.Name = "" }, "missing name"},
		"missing payload":      {func(r *RunReport) { r.Degradation = nil }, "without degradation payload"},
		"no sweep, no payload": {func(r *RunReport) { r.Degradation, r.Sweep = nil, nil }, "without degradation payload"},
		"corrupt payload":      {func(r *RunReport) { r.Degradation = json.RawMessage(`[{"intensity":`) }, "not valid JSON"},
		"experiments sweep":    {func(r *RunReport) { r.Kind = ReportExperiments; r.Sweep = nil }, "without sweep stats"},
	}
	for name, c := range cases {
		r := validReport()
		c.mutate(r)
		if err := r.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", name, err, c.want)
		}
		if name == "corrupt payload" {
			continue // json.Marshal refuses an invalid RawMessage itself
		}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := ValidateReport(data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: ValidateReport = %v, want an error naming %q", name, err, c.want)
		}
	}
}

// An interrupted degradation sweep is reported as one: its sweep stats
// count fewer finished jobs than declared, and the curve it never
// finished is absent.
func TestReportInterruptedDegradation(t *testing.T) {
	r := validReport()
	r.Degradation = nil
	r.Sweep = &SweepStats{Total: 12, Done: 5, Failed: 1}
	if err := r.Validate(); err != nil {
		t.Fatalf("interrupted degradation report rejected: %v", err)
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
	if r.Kind != ReportDegradation || r.Radix != 8 {
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

package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func validReport() *RunReport {
	return &RunReport{
		Schema:      ReportSchema,
		GeneratedAt: "2026-08-07T00:00:00Z",
		Kind:        ReportExperiments,
		Name:        "smoke",
		Radix:       8,
		Seeds:       2,
		Sweep:       &SweepStats{Total: 4, Done: 4},
		Records: []Record{{
			Exp: "table2", Point: "hotspots", Quantity: "total", Seeds: []uint64{1, 2},
			Steady: Window{Off: Stat{Mean: 127, CI95: 44}},
			Paper:  &Paper{Value: Legs{Off: 216.1}, Provenance: ProvText, Tolerance: 0.05, Verdict: "not comparable: radix 8"},
		}},
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
		"bad schema":       {func(r *RunReport) { r.Schema = "ibcc.run-report/0" }, "schema"},
		"no generated_at":  {func(r *RunReport) { r.GeneratedAt = "" }, "generated_at"},
		"bad kind":         {func(r *RunReport) { r.Kind = "sweep" }, "unknown kind"},
		"tournament kind":  {func(r *RunReport) { r.Kind = "tournament" }, "unknown kind"},
		"degradation kind": {func(r *RunReport) { r.Kind = "degradation" }, "unknown kind"},
		"no name":          {func(r *RunReport) { r.Name = "" }, "missing name"},
		"no sweep":         {func(r *RunReport) { r.Sweep = nil }, "without sweep stats"},
		"no seeds":         {func(r *RunReport) { r.Records[0].Seeds = nil }, "no seeds"},
		"NaN mean":         {func(r *RunReport) { r.Records[0].WholeRun.Gain.Mean = math.NaN() }, "mean NaN"},
		"negative CI":      {func(r *RunReport) { r.Records[0].Steady.WireOn.CI95 = -1 }, "±-1"},
		"bad provenance":   {func(r *RunReport) { r.Records[0].Paper.Provenance = "memory" }, `provenance "memory"`},
		"no tolerance":     {func(r *RunReport) { r.Records[0].Paper.Tolerance = 0 }, "tolerance 0"},
	}
	for name, c := range cases {
		r := validReport()
		c.mutate(r)
		if err := r.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", name, err, c.want)
		}
		data, err := json.Marshal(r)
		if err != nil && name == "NaN mean" {
			continue // JSON cannot carry a NaN at all
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := ValidateReport(data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: ValidateReport = %v, want an error naming %q", name, err, c.want)
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
	if r.Kind != ReportExperiments || r.Radix != 8 {
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

// FuzzValidateReport feeds hostile bytes to ValidateReport, the parser
// behind `paperbench report PATH`. It must never panic, and a report it
// accepts must survive Write: the written file validates again and
// re-encodes to the same bytes. The seeds are a committed report, a
// truncated copy of it, one of an unknown kind, one that carries paper
// records, and one of the removed degradation kind with its curve
// payload.
func FuzzValidateReport(f *testing.F) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "cmd", "paperbench", "testdata", "report-before-trend-removal.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committed)
	f.Add(committed[:len(committed)/2])
	f.Add(bytes.Replace(committed, []byte(`"kind": "experiments"`), []byte(`"kind": "tournament"`), 1))
	withRecords, err := json.Marshal(validReport())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withRecords)
	f.Add([]byte(`{"schema": "ibcc.run-report/1", "generated_at": "2026-10-18T06:03:34Z", "kind": "degradation",
		"name": "fattree-8", "radix": 8, "seeds": 2, "sweep": {"total": 8, "done": 8},
		"degradation": {"scenario": "fattree-8", "points": [{"intensity": 0.6, "cc_off": {"all_gbps": 1.5}}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ValidateReport(data)
		if err != nil {
			return
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := r.Write(path); err != nil {
			t.Fatalf("accepted report not written: %v", err)
		}
		written, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ValidateReport(written)
		if err != nil {
			t.Fatalf("written report fails validation: %v\n%s", err, written)
		}
		data, err = json.MarshalIndent(again, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(data, '\n'), written) {
			t.Fatalf("written report re-encodes differently:\n%s\nwant\n%s", data, written)
		}
	})
}

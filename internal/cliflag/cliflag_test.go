package cliflag

import (
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestPositive(t *testing.T) {
	if err := Positive("-seeds", 1); err != nil {
		t.Fatalf("Positive(1): %v", err)
	}
	for _, v := range []int{0, -1, -100} {
		err := Positive("-seeds", v)
		if err == nil {
			t.Fatalf("Positive(%d) accepted", v)
		}
		if !strings.Contains(err.Error(), "-seeds") {
			t.Fatalf("error does not name the flag: %v", err)
		}
	}
}

func TestWorkers(t *testing.T) {
	for _, v := range []int{0, 1, 64} {
		if err := Workers("-jobs", v); err != nil {
			t.Fatalf("Workers(%d): %v", v, err)
		}
	}
	if Workers("-jobs", -1) == nil {
		t.Fatal("Workers(-1) accepted")
	}
}

func TestSeeds(t *testing.T) {
	if s := Seeds(5, 3); len(s) != 3 || s[0] != 5 || s[2] != 7 {
		t.Fatalf("Seeds(5, 3) = %v", s)
	}
}

// TestCadence checks the bound ibccsim applies: telemetry.MaxBins rows
// over the run.
func TestCadence(t *testing.T) {
	span := 3 * time.Millisecond
	for _, v := range []time.Duration{12 * time.Nanosecond, 100 * time.Microsecond, time.Second} {
		if err := Cadence("-traceint", v, span, telemetry.MaxBins); err != nil {
			t.Fatalf("Cadence(%v): %v", v, err)
		}
	}
	if err := Cadence("-traceint", time.Nanosecond, 0, telemetry.MaxBins); err != nil {
		t.Fatalf("zero span: %v", err)
	}
	for _, v := range []time.Duration{0, -time.Microsecond} {
		if err := Cadence("-traceint", v, span, telemetry.MaxBins); err == nil || !strings.Contains(err.Error(), "-traceint") {
			t.Fatalf("Cadence(%v) = %v", v, err)
		}
	}
	// 3 ms / 262 144 = 11.44 ns: 11 ns is too many bins, and the error
	// names 12ns, the smallest interval that fits.
	err := Cadence("-traceint", 11*time.Nanosecond, span, telemetry.MaxBins)
	if err == nil || !strings.Contains(err.Error(), "use 12ns or more") || strings.Contains(err.Error(), "\n") {
		t.Fatalf("Cadence(11ns) = %v", err)
	}
}

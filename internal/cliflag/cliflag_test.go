package cliflag

import (
	"strings"
	"testing"
	"time"
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

func TestIntensities(t *testing.T) {
	ins, err := Intensities("-intensities", "0, 0.25,0.5,1")
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 4 || ins[0] != 0 || ins[3] != 1 {
		t.Fatalf("parsed %v", ins)
	}
	for _, bad := range []string{"-0.1", "1.5", "abc", "", "0,,nan", "0.5,2"} {
		if _, err := Intensities("-intensities", bad); err == nil {
			t.Fatalf("Intensities(%q) accepted", bad)
		}
	}
}

func TestCadence(t *testing.T) {
	span := 3 * time.Millisecond
	for _, v := range []time.Duration{5860 * time.Nanosecond, 100 * time.Microsecond, time.Second} {
		if err := Cadence("-traceint", v, span, 512); err != nil {
			t.Fatalf("Cadence(%v): %v", v, err)
		}
	}
	if err := Cadence("-traceint", time.Nanosecond, 0, 512); err != nil {
		t.Fatalf("zero span: %v", err)
	}
	for _, v := range []time.Duration{0, -time.Microsecond} {
		if err := Cadence("-traceint", v, span, 512); err == nil || !strings.Contains(err.Error(), "-traceint") {
			t.Fatalf("Cadence(%v) = %v", v, err)
		}
	}
	// 3 ms / 512 = 5859.375 ns: 5859 ns is one bin too many, and the
	// error names 5.86µs, the smallest interval that fits.
	err := Cadence("-traceint", 5859*time.Nanosecond, span, 512)
	if err == nil || !strings.Contains(err.Error(), "5.86µs") || strings.Contains(err.Error(), "\n") {
		t.Fatalf("Cadence(5859ns) = %v", err)
	}
}

// Package cliflag holds what the command-line tools share around their
// flags: numeric validation — count-like flags reject zero/negative
// values with a one-line error (and a non-zero exit at the caller)
// instead of hanging a worker pool or panicking deep inside a sweep —
// and the -cpuprofile / -memprofile writers.
package cliflag

import (
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// Positive validates a count flag that must be at least 1 (seeds,
// sweep steps, bench iteration counts).
func Positive(name string, v int) error {
	if v < 1 {
		return fmt.Errorf("%s must be >= 1, got %d", name, v)
	}
	return nil
}

// Workers validates a worker-pool size flag where 0 means "one per
// CPU": negative values are the only rejects.
func Workers(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("%s must be >= 0 (0 = one per CPU), got %d", name, v)
	}
	return nil
}

// Cadence validates a time-series sampling interval flag: positive, and
// coarse enough that the span it samples fits in maxBins bins (the
// sampler's ring — a finer cadence would silently keep only the newest
// bins). The error names the smallest interval that fits.
func Cadence(name string, v, span time.Duration, maxBins int) error {
	if v <= 0 {
		return fmt.Errorf("%s must be > 0, got %v", name, v)
	}
	n := time.Duration(maxBins)
	if min := (span + n - 1) / n; v < min {
		return fmt.Errorf("%s %v cuts the %v run into more than %d bins; use %v or more", name, v, span, maxBins, min)
	}
	return nil
}

// Intensities parses a comma-separated fault-intensity grid and
// validates every value into [0, 1]; the list must be non-empty.
func Intensities(name, s string) ([]float64, error) {
	var ins []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if math.IsNaN(v) || v < 0 || v > 1 {
			return nil, fmt.Errorf("%s: intensity %v outside [0, 1]", name, v)
		}
		ins = append(ins, v)
	}
	if len(ins) == 0 {
		return nil, fmt.Errorf("%s: empty intensity list", name)
	}
	return ins, nil
}

// StartCPUProfile begins CPU profiling to path (no-op when empty) and
// returns the stop function to defer. Failures are fatal: a profiling
// run without its profile is not worth finishing.
func StartCPUProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		log.Fatal(err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// WriteMemProfile dumps the post-GC heap profile to path (no-op when
// empty).
func WriteMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		log.Fatal(err)
	}
}

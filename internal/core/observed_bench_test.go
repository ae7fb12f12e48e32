//go:build unix

package core

import (
	"slices"
	"syscall"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// BenchmarkObservedOverBare prices observation on the radix-12 Figure 5
// sweep (the benchmark's sweep_obs_r12 shape, one worker): every
// iteration is one round of a bare pass and an observed one — invariant
// checker and telemetry sampler on every run — back to back, the side
// that goes first alternating, and the reported observed/bare is the
// median over rounds of the two passes' process CPU time, so host load
// that lasts a round cancels. It gates nothing:
//
//	go test ./internal/core -run '^$' -bench ObservedOverBare -benchtime 5x
func BenchmarkObservedOverBare(b *testing.B) {
	base := Default(12)
	pass := func(observed bool) time.Duration {
		o := Opts{Workers: 1}
		if observed {
			o.Check = true
			o.Telemetry = telemetry.NewHub(0)
		}
		t0 := cpuTime(b)
		if _, err := RunWindySweepOpts(base, 25, PaperPValues(), o); err != nil {
			b.Fatal(err)
		}
		return cpuTime(b) - t0
	}
	ratios := make([]float64, 0, b.N)
	for i := 0; i < b.N; i++ {
		var bare, obs time.Duration
		if i%2 == 0 {
			bare, obs = pass(false), pass(true)
		} else {
			obs, bare = pass(true), pass(false)
		}
		ratios = append(ratios, float64(obs)/float64(bare))
	}
	slices.Sort(ratios)
	n := len(ratios)
	b.ReportMetric((ratios[(n-1)/2]+ratios[n/2])/2, "observed/bare")
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

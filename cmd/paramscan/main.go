// Command paramscan explores the sensitivity of the congestion control
// mechanism to its parameters — the tuning problem the paper calls "a
// highly specialized task". Each scan sweeps one parameter on the
// silent-forest scenario (or a windy one with -fracb/-p), holding Table
// I values for the rest, and reports the rates against a shared CC-off
// baseline.
//
//	paramscan                          # all scans at radix 12
//	paramscan -scan threshold -radix 18
//	paramscan -scan timer -fracb 100 -p 60
//	paramscan -jobs 8 -out results/    # parallel workers + JSON artifacts
//
// Each scan's runs (the shared baseline plus one per value) are
// independent and fan out across -jobs workers (0 = one per CPU) with
// bit-identical tables to a serial run; -out persists every result as
// a fingerprint-keyed JSON artifact and resumes from it on re-run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/cliflag"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paramscan: ")

	var (
		scan    = flag.String("scan", "all", "threshold, timer, increase, markingrate, cctlimit, backlog, all")
		radix   = flag.Int("radix", 12, "fat-tree crossbar radix")
		seed    = flag.Uint64("seed", 1, "random seed")
		fracB   = flag.Int("fracb", 0, "percent of B nodes")
		p       = flag.Int("p", 0, "hotspot share of B nodes")
		warmup  = flag.Duration("warmup", 2*time.Millisecond, "warmup")
		measure = flag.Duration("measure", 4*time.Millisecond, "measurement window")
		jobs    = flag.Int("jobs", 1, "simulation workers (0 = one per CPU)")
		out     = flag.String("out", "", "artifact directory: persist every result as JSON and resume from it")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	// Reject nonsensical numeric flags with one line and a non-zero
	// exit instead of hanging a worker pool downstream.
	for _, err := range []error{
		cliflag.Workers("-jobs", *jobs),
		cliflag.Positive("-radix", *radix),
	} {
		if err != nil {
			log.Fatal(err)
		}
	}

	stopCPU := cliflag.StartCPUProfile(*cpuProf)
	defer stopCPU()
	defer cliflag.WriteMemProfile(*memProf)

	var store *exp.Store
	if *out != "" {
		var err error
		if store, err = exp.NewStore(*out); err != nil {
			log.Fatal(err)
		}
	}
	opts := exp.SweepOpts(core.Opts{}, *jobs, 0, store, nil)

	base := core.Default(*radix)
	base.Seed = *seed
	base.FracBPct = *fracB
	base.PPercent = *p
	base.Warmup = sim.Duration(warmup.Nanoseconds()) * sim.Nanosecond
	base.Measure = sim.Duration(measure.Nanoseconds()) * sim.Nanosecond

	scans := []struct {
		name   string
		values []int
		apply  func(*core.Scenario, int)
	}{
		{"threshold", []int{1, 3, 5, 7, 9, 11, 13, 15},
			func(s *core.Scenario, v int) { s.CC.Threshold = uint8(v) }},
		{"timer", []int{38, 75, 150, 300, 600, 1200},
			func(s *core.Scenario, v int) { s.CC.CCTITimer = uint16(v) }},
		{"increase", []int{1, 2, 4, 8, 16},
			func(s *core.Scenario, v int) { s.CC.CCTIIncrease = uint16(v) }},
		{"markingrate", []int{0, 1, 3, 7, 15},
			func(s *core.Scenario, v int) { s.CC.MarkingRate = uint16(v) }},
		{"cctlimit", []int{7, 13, 27, 55, 111},
			func(s *core.Scenario, v int) { s.CC.CCTILimit = uint16(v) }},
		{"backlog", []int{1, 2, 4, 8, 16},
			func(s *core.Scenario, v int) { s.BacklogCap = v }},
	}

	start := time.Now()
	ran := 0
	for _, sc := range scans {
		if *scan != "all" && *scan != sc.name {
			continue
		}
		res, err := core.ScanCCOpts(base, sc.name, sc.values, sc.apply, opts)
		if err != nil {
			log.Fatal(err)
		}
		res.Print(os.Stdout)
		fmt.Println()
		ran++
	}
	if ran == 0 {
		log.Fatalf("unknown scan %q", *scan)
	}
	fmt.Printf("paramscan: done in %v\n", time.Since(start).Round(time.Second))
}

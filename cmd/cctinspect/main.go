// Command cctinspect prints how the congestion control parameters map to
// concrete behaviour: the CCT-indexed injection rate delays and effective
// flow rates, the threshold weight mapping, and the recovery timer — a
// quick way to sanity-check a parameter set before simulating it.
//
// With -run it additionally simulates a scenario under the parameter set
// and prints the CCTI-over-time table of a telemetry sampler binned at
// -interval: per bin the throttle increments and decrements, the number
// of flows holding congestion state, and the max and mean CCTI.
//
// With -report it instead validates and summarizes a unified run-report
// artifact (written by paperbench -report).
//
// With -ckpt it validates a checkpoint file (or the newest one in a
// directory) and prints its header: scenario, simulated clock, pending
// events by kind, packet custody and digest position.
//
//	cctinspect -threshold 3
//	cctinspect -run -radix 12 -fracb 100 -p 60 -interval 500us
//	cctinspect -run -check    # the same, audited by the invariant checker
//	cctinspect -report run.json
//	cctinspect -ckpt ckpts/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"repro/internal/cc"
	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/cliflag"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// runWarmup is the fixed warmup of the -run scenario.
const runWarmup = 2 * time.Millisecond

func main() {
	log.SetFlags(0)
	log.SetPrefix("cctinspect: ")
	var (
		limit    = flag.Int("limit", 127, "CCTI limit")
		timer    = flag.Int("timer", 150, "CCTI timer (units of 1.024us)")
		weight   = flag.Int("threshold", 15, "threshold weight 0-15")
		every    = flag.Int("every", 8, "print every n-th CCT row")
		run      = flag.Bool("run", false, "simulate a scenario and print the CCTI-over-time table")
		radix    = flag.Int("radix", 12, "fat-tree radix of the -run scenario")
		fracB    = flag.Int("fracb", 0, "percent of B nodes in the -run scenario")
		pShare   = flag.Int("p", 0, "hotspot share of B nodes in the -run scenario")
		measure  = flag.Duration("measure", 3*time.Millisecond, fmt.Sprintf("-run measurement window (after a %v warmup)", runWarmup))
		interval = flag.Duration("interval", 500*time.Microsecond, "-run table bucket size")
		checkInv = flag.Bool("check", false, "run the -run scenario under the runtime invariant checker; exit non-zero on violations")
		report   = flag.String("report", "", "validate and summarize a run-report JSON artifact (from paperbench -report) and exit; non-zero on schema violations")
		ckptPath = flag.String("ckpt", "", "validate and summarize a checkpoint file (or the newest in a directory) and exit; non-zero on corruption")
	)
	flag.Parse()

	if *run {
		if err := cliflag.Cadence("-interval", *interval, runWarmup+*measure, telemetry.RingCap); err != nil {
			log.Fatal(err)
		}
	}

	if *ckptPath != "" {
		if err := renderCheckpoint(*ckptPath); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *report != "" {
		if err := renderReport(*report); err != nil {
			log.Fatal(err)
		}
		return
	}

	p := cc.PaperParams()
	p.CCTILimit = uint16(*limit)
	p.CCTITimer = uint16(*timer)
	p.Threshold = uint8(*weight)
	if err := p.Validate(); err != nil {
		fmt.Println("invalid parameters:", err)
		return
	}
	cfg := fabric.DefaultConfig()
	wire := ib.MTU + ib.HeaderBytes
	pktTime := cfg.LinkRate.TxTime(wire)

	fmt.Printf("parameters: %v\n", p)
	fmt.Printf("MTU packet: %d B payload, %d B wire, %v serialization at %.1f Gbps\n\n",
		ib.MTU, wire, pktTime, cfg.LinkRate.Gbps())

	fmt.Println("CCT (injection rate delay per index):")
	fmt.Printf("  %5s %12s %14s %10s\n", "CCTI", "IRD", "delay/packet", "flow rate")
	for i := 0; i <= int(p.CCTILimit); i += *every {
		ird := p.CCT[i]
		delay := sim.Duration(ird) * pktTime
		rate := cfg.LinkRate.Gbps() / float64(1+ird)
		fmt.Printf("  %5d %12d %14v %8.3fG\n", i, ird, delay, rate)
	}
	if int(p.CCTILimit)%*every != 0 {
		ird := p.CCT[p.CCTILimit]
		fmt.Printf("  %5d %12d %14v %8.3fG  (limit)\n", p.CCTILimit, ird,
			sim.Duration(ird)*pktTime, cfg.LinkRate.Gbps()/float64(1+ird))
	}

	fmt.Printf("\nrecovery: CCTI timer %d -> one decrement per %v; full recovery from the limit in %v\n",
		p.CCTITimer, sim.Duration(p.CCTITimer)*cc.TimerUnit,
		sim.Duration(int(p.CCTILimit)*int(p.CCTITimer))*cc.TimerUnit)

	fmt.Printf("\nthreshold weights (reference %d B = %dx switch ibuf):\n",
		cfg.SwitchIbufBytes*p.ThresholdRefMultiple, p.ThresholdRefMultiple)
	for w := uint8(1); w <= 15; w++ {
		q := p
		q.Threshold = w
		thr := q.ThresholdBytes(cfg.SwitchIbufBytes)
		marker := "  "
		if w == p.Threshold {
			marker = "->"
		}
		fmt.Printf("  %s weight %2d: mark above %6d B queued (~%d packets)\n",
			marker, w, thr, thr/wire)
	}

	if *run {
		fmt.Println()
		if err := runTable(p, *radix, *fracB, *pShare,
			sim.Duration(measure.Nanoseconds())*sim.Nanosecond,
			sim.Duration(interval.Nanoseconds())*sim.Nanosecond, *checkInv); err != nil {
			log.Fatal(err)
		}
	}
}

// renderCheckpoint validates a checkpoint (magic, CRC, schema) and
// prints its header — the fast way to answer "what run is this, how far
// along, and is the file intact" before resuming from it.
func renderCheckpoint(path string) error {
	file, err := ckpt.Latest(path)
	if err != nil {
		return err
	}
	snap, err := ckpt.Load(file)
	if err != nil {
		return err
	}
	var s core.Scenario
	if err := json.Unmarshal(snap.Scenario, &s); err != nil {
		return fmt.Errorf("%s: scenario: %w", file, err)
	}
	backend := snap.Backend
	if backend == "" {
		backend = "(cc off)"
	}
	fmt.Printf("checkpoint: %s (version %d, CRC ok)\n", file, snap.Version)
	fmt.Printf("  scenario : %s — radix %d, seed %d, backend %s\n", s.Name, s.Radix, s.Seed, backend)
	fmt.Printf("  clock    : t=%v, next seq %d, %d events processed\n",
		snap.Kernel.Now, snap.Kernel.Seq, snap.Kernel.Processed)
	kinds := map[string]int{}
	for _, e := range snap.Events {
		kinds[e.Kind]++
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("  pending  : %d events, %d packets in custody\n", len(snap.Events), len(snap.Pkts))
	for _, k := range names {
		fmt.Printf("             %-10s %d\n", k, kinds[k])
	}
	if d := snap.Digest; d != nil {
		fmt.Printf("  digest   : %016x after %d records\n", d.Sum, d.Records)
	}
	return nil
}

// renderReport validates a run-report artifact and prints its summary:
// orchestration stats, telemetry aggregates and the kernel-bench trend.
func renderReport(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rep, err := telemetry.ValidateReport(raw)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("run report: %s (%s), kind %s, scenario %s radix %d seeds %d\n",
		path, rep.GeneratedAt, rep.Kind, rep.Name, rep.Radix, rep.Seeds)
	if st := rep.Sweep; st != nil {
		fmt.Printf("  sweep    : %d/%d jobs (%d failed, %d cached), %d events in %.0f ms (%.1fM events/s), %d workers at %.0f%% util\n",
			st.Done, st.Total, st.Failed, st.Cached, st.Events, st.ElapsedMS,
			st.EventsPerSec/1e6, st.Workers, 100*st.WorkerUtil)
		fmt.Printf("  job wall : p50 %.1f ms, p99 %.1f ms, max %.1f ms\n",
			st.JobMS.P50, st.JobMS.P99, st.JobMS.Max)
	}
	if tl := rep.Telemetry; tl != nil {
		fmt.Printf("  runs     : %d sampled, message completion p50 %.1f us, p99 %.1f us over %d messages\n",
			tl.Runs, tl.Completion.P50, tl.Completion.P99, tl.Completion.Count)
		for i, p := range tl.HotPorts {
			if i >= 3 {
				break
			}
			kind := "switch"
			if p.HostPort {
				kind = "host"
			}
			fmt.Printf("  hot port : sw%d port%d (%s) peak %.1f KB queued\n", p.Switch, p.Port, kind, p.PeakKB)
		}
	}
	if tr := rep.Trend; tr != nil {
		if tr.Baseline != nil {
			fmt.Printf("  trend    : kernel baseline %.1f ns/event (%s); sweep at %.1f%% of kernel ceiling\n",
				tr.Baseline.NsPerEvent, tr.Baseline.GeneratedAt, tr.SweepVsKernelPct)
		}
		if len(tr.History) > 0 {
			fmt.Printf("  history  : %d bench points, drift %+.1f%% ns/event\n",
				len(tr.History), tr.HistoryDriftPct)
		}
	}
	return nil
}

// runTable simulates the scenario under params and prints the
// CCTI-over-time table from a telemetry sampler binned at interval,
// optionally under the runtime invariant checker.
func runTable(params cc.Params, radix, fracB, p int, measure, interval sim.Duration, checkInv bool) error {
	s := core.Default(radix)
	s.CC = params
	s.FracBPct = fracB
	s.PPercent = p
	s.Warmup = sim.Duration(runWarmup.Nanoseconds()) * sim.Nanosecond
	s.Measure = measure
	in, err := core.Build(s)
	if err != nil {
		return err
	}
	smp := telemetry.NewSampler(s.Name, interval)
	in.Observe(core.ObserveOpts{Telemetry: smp})
	var ck *check.Checker
	if checkInv {
		ck = in.Check(core.CheckOpts{Diagnostics: os.Stderr})
	}
	res := in.Execute()
	smp.Finish()
	snap := smp.Snapshot()
	fmt.Printf("run: %s, B=%d%% p=%d%%, %.0f CCTI steps recorded (fecn=%d becn=%d maxCCTI=%d)\n",
		s.Name, fracB, p, snap.CCTIIncr.Sum()+snap.CCTIDecr.Sum(),
		res.CCStats.FECNMarked, res.CCStats.BECNReceived, res.CCStats.MaxCCTI)
	if ck != nil {
		rep := ck.Report()
		fmt.Printf("check: %s\n", rep.Summary())
		if err := rep.Err(); err != nil {
			for _, v := range rep.Violations {
				fmt.Printf("  %s\n", v)
			}
			return err
		}
	}
	return snap.WriteCCTITable(os.Stdout)
}

package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/cc"
	"repro/internal/ckpt"
	"repro/internal/cliflag"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The inspectors simulate nothing: cct shows what a CC parameter set
// means before it is simulated, ckpt and report validate and summarize
// the files a run leaves behind.

// cctCmd prints how the congestion control parameters map to concrete
// behaviour: the CCT-indexed injection rate delays and effective flow
// rates, the recovery timer and the threshold weight mapping — a quick
// way to sanity-check a parameter set before simulating it. Its check
// rejects a value the parameter's field cannot hold rather than let it
// wrap.
func cctCmd(fs *flag.FlagSet, c *runConfig) (func() error, func(string) error) {
	p := cc.PaperParams()
	limit := fs.Int("limit", int(p.CCTILimit), "CCTI limit")
	timer := fs.Int("timer", int(p.CCTITimer), "CCTI timer (units of 1.024us)")
	weight := fs.Int("threshold", int(p.Threshold), "threshold weight 0-15")
	every := fs.Int("every", 8, "print every n-th CCT row")
	check := func() error {
		for _, f := range []struct {
			name   string
			v, max int
		}{{"-limit", *limit, len(p.CCT) - 1}, {"-timer", *timer, math.MaxUint16}, {"-threshold", *weight, 15}} {
			if f.v < 0 || f.v > f.max {
				return fmt.Errorf("%s must be in [0, %d], got %d", f.name, f.max, f.v)
			}
		}
		p.CCTILimit, p.CCTITimer, p.Threshold = uint16(*limit), uint16(*timer), uint8(*weight)
		return errors.Join(cliflag.Positive("-every", *every), p.Validate())
	}
	return check, func(string) error {
		printCCT(c.w, p, *every)
		return nil
	}
}

// printCCT prints the parameter set's CCT (every n-th row and the
// limit's), its recovery time and its threshold weights.
func printCCT(w io.Writer, p cc.Params, every int) {
	cfg := fabric.DefaultConfig()
	wire := ib.MTU + ib.HeaderBytes
	pktTime := cfg.LinkRate.TxTime(wire)

	fmt.Fprintf(w, "parameters: %v\n", p)
	fmt.Fprintf(w, "MTU packet: %d B payload, %d B wire, %v serialization at %.1f Gbps\n\n",
		ib.MTU, wire, pktTime, cfg.LinkRate.Gbps())

	fmt.Fprintln(w, "CCT (injection rate delay per index):")
	fmt.Fprintf(w, "  %5s %12s %14s %10s\n", "CCTI", "IRD", "delay/packet", "flow rate")
	for i := 0; i <= int(p.CCTILimit); i += every {
		ird := p.CCT[i]
		delay := sim.Duration(ird) * pktTime
		rate := cfg.LinkRate.Gbps() / float64(1+ird)
		fmt.Fprintf(w, "  %5d %12d %14v %8.3fG\n", i, ird, delay, rate)
	}
	if int(p.CCTILimit)%every != 0 {
		ird := p.CCT[p.CCTILimit]
		fmt.Fprintf(w, "  %5d %12d %14v %8.3fG  (limit)\n", p.CCTILimit, ird,
			sim.Duration(ird)*pktTime, cfg.LinkRate.Gbps()/float64(1+ird))
	}

	fmt.Fprintf(w, "\nrecovery: CCTI timer %d -> one decrement per %v; full recovery from the limit in %v\n",
		p.CCTITimer, sim.Duration(p.CCTITimer)*cc.TimerUnit,
		sim.Duration(int(p.CCTILimit)*int(p.CCTITimer))*cc.TimerUnit)

	fmt.Fprintf(w, "\nthreshold weights (reference %d B = %dx switch ibuf):\n",
		cfg.SwitchIbufBytes*p.ThresholdRefMultiple, p.ThresholdRefMultiple)
	for wt := uint8(1); wt <= 15; wt++ {
		q := p
		q.Threshold = wt
		thr := q.ThresholdBytes(cfg.SwitchIbufBytes)
		marker := "  "
		if wt == p.Threshold {
			marker = "->"
		}
		fmt.Fprintf(w, "  %s weight %2d: mark above %6d B queued (~%d packets)\n",
			marker, wt, thr, thr/wire)
	}
}

func ckptCmd(_ *flag.FlagSet, c *runConfig) (func() error, func(string) error) {
	return nil, func(path string) error { return renderCheckpoint(c.w, path) }
}

// renderCheckpoint validates a checkpoint (magic, CRC, schema) and
// prints its header — the fast way to answer "what run is this, how far
// along, and is the file intact" before resuming from it.
func renderCheckpoint(w io.Writer, path string) error {
	file, err := ckpt.Latest(path)
	if err != nil {
		return err
	}
	snap, err := ckpt.Load(file)
	if err != nil {
		return fmt.Errorf("%s: %w", file, err)
	}
	var s core.Scenario
	if err := json.Unmarshal(snap.Scenario, &s); err != nil {
		return fmt.Errorf("%s: scenario: %w", file, err)
	}
	backend := snap.Backend
	if backend == "" {
		backend = "(cc off)"
	}
	fmt.Fprintf(w, "checkpoint: %s (version %d, CRC ok)\n", file, snap.Version)
	fmt.Fprintf(w, "  scenario : %s — radix %d, seed %d, backend %s\n", s.Name, s.Radix, s.Seed, backend)
	fmt.Fprintf(w, "  clock    : t=%v, next seq %d, %d events processed\n",
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
	fmt.Fprintf(w, "  pending  : %d events, %d packets in custody\n", len(snap.Events), len(snap.Pkts))
	for _, k := range names {
		fmt.Fprintf(w, "             %-10s %d\n", k, kinds[k])
	}
	if d := snap.Digest; d != nil {
		fmt.Fprintf(w, "  digest   : %016x after %d records\n", d.Sum, d.Records)
	}
	return nil
}

func reportCmd(_ *flag.FlagSet, c *runConfig) (func() error, func(string) error) {
	return nil, func(path string) error { return renderReport(c.w, path) }
}

// renderReport validates a run-report artifact and prints its summary:
// orchestration stats, telemetry aggregates and the kernel-bench trend.
func renderReport(w io.Writer, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rep, err := telemetry.ValidateReport(raw)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "run report: %s (%s), kind %s, scenario %s radix %d seeds %d\n",
		path, rep.GeneratedAt, rep.Kind, rep.Name, rep.Radix, rep.Seeds)
	if st := rep.Sweep; st != nil {
		fmt.Fprintf(w, "  sweep    : %d/%d jobs (%d failed, %d cached), %d events in %.0f ms (%.1fM events/s), %d workers at %.0f%% util\n",
			st.Done, st.Total, st.Failed, st.Cached, st.Events, st.ElapsedMS,
			st.EventsPerSec/1e6, st.Workers, 100*st.WorkerUtil)
		fmt.Fprintf(w, "  job wall : p50 %.1f ms, p99 %.1f ms, max %.1f ms\n",
			st.JobMS.P50, st.JobMS.P99, st.JobMS.Max)
	}
	if tl := rep.Telemetry; tl != nil {
		fmt.Fprintf(w, "  runs     : %d sampled, message completion p50 %.1f us, p99 %.1f us over %d messages\n",
			tl.Runs, tl.Completion.P50, tl.Completion.P99, tl.Completion.Count)
		for i, p := range tl.HotPorts {
			if i >= 3 {
				break
			}
			kind := "switch"
			if p.HostPort {
				kind = "host"
			}
			fmt.Fprintf(w, "  hot port : sw%d port%d (%s) peak %.1f KB queued\n", p.Switch, p.Port, kind, p.PeakKB)
		}
	}
	if tr := rep.Trend; tr != nil {
		if tr.Baseline != nil {
			fmt.Fprintf(w, "  trend    : kernel baseline %.1f ns/event (%s); sweep at %.1f%% of kernel ceiling\n",
				tr.Baseline.NsPerEvent, tr.Baseline.GeneratedAt, tr.SweepVsKernelPct)
		}
		if len(tr.History) > 0 {
			fmt.Fprintf(w, "  history  : %d bench points, drift %+.1f%% ns/event\n",
				len(tr.History), tr.HistoryDriftPct)
		}
	}
	return nil
}

// Package ibcc reproduces "Exploring the Scope of the InfiniBand
// Congestion Control Mechanism" (Gran, Reinemo, Lysne, Skeie, Zahavi,
// Shainer — IPDPS 2012): a discrete-event simulation of InfiniBand
// fat-tree fabrics with credit-based link-level flow control,
// virtual-output-queued switches, and the complete IB congestion control
// loop (FECN marking, BECN return, CCT/CCTI injection throttling),
// driven by the paper's silent / windy / moving congestion-tree
// workloads.
//
// The package is a facade over the internal packages:
//
//   - internal/sim     — deterministic discrete-event kernel
//   - internal/ib      — InfiniBand data types and units
//   - internal/topo    — fat-tree topologies and LFT routing
//   - internal/fabric  — switches, HCAs, links, credits, arbitration
//   - internal/cc      — the congestion control mechanism
//   - internal/traffic — C/B/V node generators and hotspot schedules
//   - internal/metrics — rate measurement and aggregation
//   - internal/fault   — deterministic fault injection
//   - internal/core    — scenario assembly and experiment drivers
//
// Quick start:
//
//	s := ibcc.DefaultScenario(36) // the paper's 648-node fat-tree
//	s.FracBPct, s.PPercent = 100, 60
//	res, err := ibcc.Run(s)
//	// res.Summary holds hotspot / non-hotspot / total rates.
//
// The paper's evaluation is one table of CC-off/CC-on rows: Paper builds
// it, RunPairs runs any subset and PrintPaper prints the records (see
// cmd/paperbench); bench_test.go ablates the model's design choices.
package ibcc

import (
	"io"

	"repro/internal/cc"
	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Re-exported durations for scenario configuration.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Duration is simulated time (picosecond resolution).
type Duration = sim.Duration

// Time is an absolute simulated timestamp.
type Time = sim.Time

// Scenario describes one experiment; see DefaultScenario.
type Scenario = core.Scenario

// Result is the outcome of one Run.
type Result = core.Result

// CCParams are the InfiniBand congestion control parameters.
type CCParams = cc.Params

// PaperRow is one CC-off/CC-on comparison of the paper's evaluation.
type PaperRow = core.PaperRow

// PaperRecord is a row with the results of its two scenarios.
type PaperRecord = core.PaperRecord

// WindyPoint is one p-value of a figures-5–8 sweep.
type WindyPoint = core.WindyPoint

// Instance is a built-but-not-run scenario; it allows attaching
// instrumentation (see Instance.Observe and Instance.Check) before
// Execute.
type Instance = core.Instance

// ObserveOpts selects the flight-recorder consumers Instance.Observe
// attaches: JSONL event log, congestion-tree analyzer,
// per-port counters, telemetry sampler.
type ObserveOpts = core.ObserveOpts

// Observation is the handle to a run's attached flight recorder; call
// Instance.Observe between Build and Execute, and Observation.Close
// after Execute.
type Observation = core.Observation

// Flow classifications in a run's congestion-tree report
// (Observation.TreeReport).
const (
	FlowUnknown     = obs.FlowUnknown
	FlowContributor = obs.FlowContributor
	FlowVictim      = obs.FlowVictim
)

// CheckOpts configures the runtime invariant checker attached to a run
// via Instance.Check or RunChecked; the zero value enables the full
// suite at its defaults.
type CheckOpts = core.CheckOpts

// InvariantReport is the outcome of a checked run: the recorded
// violations plus sweep/probe counters. A clean report's Err() is nil.
type InvariantReport = check.Report

// DiffReport pairs the timing-wheel and reference-heap signatures of one
// differential kernel run; Match reports byte-identical trajectories.
type DiffReport = core.DiffReport

// DefaultScenario returns the paper's baseline configuration on a
// radix-r fat-tree (radix 36 = the 648-node Sun DCS 648), with Table I's
// CC parameters at every radix.
func DefaultScenario(radix int) Scenario { return core.Default(radix) }

// Build assembles a scenario without running it.
func Build(s Scenario) (*Instance, error) { return core.Build(s) }

// PaperCCParams returns Table I of the paper.
func PaperCCParams() CCParams { return cc.PaperParams() }

// Run executes one scenario end to end.
func Run(s Scenario) (*Result, error) { return core.Run(s) }

// RunChecked executes one scenario under the runtime invariant checker
// (packet conservation, credit bounds, CCTI legality, FEL order,
// forward-progress watchdog). The result is bit-identical to Run's.
func RunChecked(s Scenario, o CheckOpts) (*Result, *InvariantReport, error) {
	return core.RunChecked(s, o)
}

// RunDifferential executes one scenario on both event-list kernels (the
// production timing wheel and the reference binary heap) and returns
// their trajectory signatures for comparison.
func RunDifferential(s Scenario) (*DiffReport, error) { return core.RunDifferential(s) }

// TableIIScenarios derives Table II's four configurations from a base
// scenario; the differential kernel check uses them as its corpus.
func TableIIScenarios(base Scenario) []Scenario { return core.TableIIScenarios(base) }

// MultiResult aggregates one scenario across seeds with confidence
// intervals.
type MultiResult = core.MultiResult

// PrintWindy formats a windy sweep like a paper figure's series.
func PrintWindy(w io.Writer, pts []WindyPoint) { core.PrintWindy(w, pts) }

// PrintPaper formats records like the paper's tables and figures.
func PrintPaper(w io.Writer, recs []PaperRecord) { core.PrintPaper(w, recs) }

// RunOpts configures how a sweep driver executes its independent
// simulations: worker-pool size, cancellation context, and the
// artifact lookup/persistence hooks. The zero value runs serially with
// no hooks.
// The determinism guarantee holds for every Workers value: results are
// collected in submission order and reduced serially, so parallel and
// serial sweeps produce bit-identical aggregates.
type RunOpts = core.Opts

// RunSeedsOpts executes a scenario once per seed and aggregates the
// results.
func RunSeedsOpts(s Scenario, seeds []uint64, o RunOpts) (*MultiResult, error) {
	return core.RunSeedsOpts(s, seeds, o)
}

// Paper returns every row of Table II and figures 5–10 in print order,
// derived from a base scenario; ps are the p values of figures 5–8.
func Paper(base Scenario, ps []int) []PaperRow { return core.Paper(base, ps) }

// MovingRows returns one moving-forest series (figures 9–10) over the
// given hotspot lifetimes.
func MovingRows(base Scenario, lifetimes []Duration) []PaperRow {
	return core.MovingRows(base, lifetimes)
}

// RunPairs runs every row's CC-off and CC-on scenario and returns one
// record per row.
func RunPairs(rows []PaperRow, o RunOpts) ([]PaperRecord, error) { return core.RunPairs(rows, o) }

// RunWindySweepOpts reproduces one of figures 5–8 (windy forests with
// fracB percent B nodes over the given p values).
func RunWindySweepOpts(base Scenario, fracB int, ps []int, o RunOpts) ([]WindyPoint, error) {
	return core.RunWindySweepOpts(base, fracB, ps, o)
}

// SweepOpts completes o the way every CLI sweep runs: jobs is the -jobs
// value (0 = one worker per CPU), total the number of simulations the
// sweep will run (0 = unknown) and st the -out artifact store (nil =
// none). The caller sets Ctx, Check, Telemetry and Spans on o directly.
func SweepOpts(o RunOpts, jobs, total int, st *ArtifactStore) RunOpts {
	return exp.SweepOpts(o, jobs, total, st)
}

// ArtifactStore persists one JSON artifact per simulated scenario,
// keyed by scenario fingerprint, making sweeps resumable; its manifest
// (WriteManifest / ReadManifest) records what an interrupted sweep had
// finished.
type ArtifactStore = exp.Store

// NewArtifactStore opens (creating if needed) an artifact directory.
func NewArtifactStore(dir string) (*ArtifactStore, error) { return exp.NewStore(dir) }

// ScenarioFingerprint returns the stable content hash an ArtifactStore
// keys a scenario's artifact by.
func ScenarioFingerprint(s Scenario) string { return exp.Fingerprint(s) }

// TelemetryHub aggregates in-sim time-series samplers across a sweep's
// runs; assign one to RunOpts.Telemetry. The samplers are pure event-bus
// consumers, so an instrumented sweep stays bit-identical to a bare one.
type TelemetryHub = telemetry.Hub

// NewTelemetryHub returns a hub sampling at the given cadence of
// simulated time (0 = the 10 µs default).
func NewTelemetryHub(cadence Duration) *TelemetryHub { return telemetry.NewHub(cadence) }

// TelemetrySampler is one run's in-sim time-series collector: per-class
// delivered rates, queue depths, throttle state, fault state and the
// message-completion histogram. Attach via ObserveOpts.Telemetry, or
// let a TelemetryHub manage one per run.
type TelemetrySampler = telemetry.Sampler

// NewTelemetrySampler returns a detached sampler (cadence 0 = default).
func NewTelemetrySampler(name string, cadence Duration) *TelemetrySampler {
	return telemetry.NewSampler(name, cadence)
}

// TelemetryRingCap is the number of bins a sampler's series hold; a run
// of more bins keeps only the newest.
const TelemetryRingCap = telemetry.RingCap

// TelemetrySeries is one sampled time-series (bin-end timestamps in
// simulated µs plus values).
type TelemetrySeries = telemetry.Series

// TelemetryHubSnapshot is a hub's published state: run counts, the
// cross-run completion histogram and the hottest ports.
type TelemetryHubSnapshot = telemetry.HubSnapshot

// SpanTracker records orchestration spans (one per sweep job: worker,
// wall time, events, cache flag, error) and aggregates them into sweep
// statistics, optionally writing a progress line per finished job
// (StatusTo); assign one to RunOpts.Spans.
type SpanTracker = telemetry.Tracker

// NewSpanTracker returns an empty tracker.
func NewSpanTracker() *SpanTracker { return telemetry.NewTracker() }

// SweepStats is a SpanTracker's aggregate view: progress, throughput,
// ETA, worker utilization and the job-latency histogram.
type SweepStats = telemetry.SweepStats

// RunReport is the unified end-of-run artifact: sweep statistics,
// telemetry aggregates and the mode-specific payload (the degradation
// curve).
type RunReport = telemetry.RunReport

// RunReportSchema is the schema identifier every RunReport carries.
const RunReportSchema = telemetry.ReportSchema

// RunReport kinds.
const (
	ReportExperiments = telemetry.ReportExperiments
	ReportDegradation = telemetry.ReportDegradation
)

// FaultPlan is a deterministic fault-injection schedule: link flaps,
// switch-port stalls, rate degradations, and per-class probabilistic
// wire loss. Assign one to Scenario.Faults; a nil or zero plan is
// semantically absent.
type FaultPlan = fault.Plan

// FaultStats reports what a run's fault injector did: drop tallies per
// class, link transitions, the receive-rate curve and recovery time.
type FaultStats = fault.Stats

// DecodeFaultPlan reads and validates a JSON fault plan (unknown fields
// rejected); Build re-validates it against the concrete link set.
func DecodeFaultPlan(r io.Reader) (*FaultPlan, error) { return fault.Decode(r) }

// DegradationPoint is one fault intensity of a graceful-degradation
// sweep (CC off and on legs over the same synthesized plans).
type DegradationPoint = core.DegradationPoint

// RunDegradationOpts sweeps fault intensity × CC on/off over a base
// scenario and aggregates receive-rate and recovery curves across seeds.
func RunDegradationOpts(base Scenario, intensities []float64, seeds []uint64, o RunOpts) ([]DegradationPoint, error) {
	return core.RunDegradationOpts(base, intensities, seeds, o)
}

// PrintDegradation formats a degradation sweep as a table.
func PrintDegradation(w io.Writer, pts []DegradationPoint) { core.PrintDegradation(w, pts) }

// CCBackends returns the sorted names of every registered congestion
// control backend.
func CCBackends() []string { return cc.Names() }

// CCBackendKnown reports whether name selects a registered backend
// (the empty string selects the default).
func CCBackendKnown(name string) bool { return cc.Known(name) }

// CkptOpts configures cadence checkpointing for
// Instance.ExecuteWithCheckpoints: the simulated-time interval, the
// rolling-file directory and keep count, and an optional per-save hook.
type CkptOpts = core.CkptOpts

// RestoreFile restores from a checkpoint file, or from the newest
// checkpoint in a directory.
func RestoreFile(path string) (*Instance, error) { return core.RestoreFile(path) }

// LatestCheckpoint resolves a checkpoint file or directory to the
// newest checkpoint file inside it.
func LatestCheckpoint(path string) (string, error) { return ckpt.Latest(path) }

// PaperPValues returns the paper's p sweep (0,10,…,100).
func PaperPValues() []int { return core.PaperPValues() }

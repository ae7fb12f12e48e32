package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/telemetry"
)

// sweepWorkers is fixed (not GOMAXPROCS) so the workload is the same
// closed loop of two concurrent simulations on every machine.
const sweepWorkers = 2

// pass is one run of the windy sweep through the public driver.
type pass struct {
	wall            time.Duration
	allocs          uint64
	events, packets uint64
	cached          int
	save            time.Duration
	points          []core.WindyPoint
	// jobEnd is when each job's result arrived, since the pass began.
	jobEnd    map[string]time.Duration
	storeErrs []error
}

// runPass drives core.RunWindySweepOpts once. With a store the pass is
// fully instrumented — invariant checker, telemetry sampler, artifact
// lookup and crash-safe save per job — as a long paper sweep would run;
// without one it is bare. The driver hands out no instances, so packets
// are the data packets delivered inside each job's measurement window
// (Result.Latency.Count).
func runPass(base core.Scenario, workers int, store *exp.Store, spans *telemetry.Tracker) (*pass, error) {
	p := &pass{jobEnd: map[string]time.Duration{}}
	o := core.Opts{Workers: workers, Spans: spans}
	var save func(core.Scenario, *core.Result, bool)
	if store != nil {
		o.Check = true
		o.Telemetry = telemetry.NewHub(0)
		o.Lookup = store.Lookup
		save = store.SaveResult(func(err error) { p.storeErrs = append(p.storeErrs, err) })
	}
	var t0 time.Time
	o.OnResult = func(s core.Scenario, r *core.Result, cached bool) {
		if save != nil {
			ts := time.Now()
			save(s, r, cached)
			p.save += time.Since(ts)
		}
		p.events += r.Events
		p.packets += r.Latency.Count
		if cached {
			p.cached++
		}
		p.jobEnd[s.Name] = time.Since(t0)
	}
	runtime.GC()
	m0 := mallocs()
	t0 = time.Now()
	points, err := core.RunWindySweepOpts(base, sweepFracB, core.PaperPValues(), o)
	p.wall = time.Since(t0)
	p.allocs = mallocs() - m0
	p.points = points
	return p, err
}

// sweepScenarios returns exactly the scenarios the driver would run, by
// answering every lookup from a recording stub (nothing is simulated).
func sweepScenarios(base core.Scenario) ([]core.Scenario, error) {
	var ss []core.Scenario
	_, err := core.RunWindySweepOpts(base, sweepFracB, core.PaperPValues(), core.Opts{
		Lookup: func(s core.Scenario) (*core.Result, bool) {
			ss = append(ss, s)
			return &core.Result{}, true
		},
	})
	return ss, err
}

// sweeper holds what the untraced and traced sweep runs share: the temp
// directory for stores and the reference outcome every pass must match.
type sweeper struct {
	base core.Scenario
	// scen are the scenarios the driver runs per pass.
	scen  []core.Scenario
	tmp   string
	out   *workloadResult
	first *pass
	nStor int
}

func newSweeper(w *workload, o runOpts, traced bool) (*sweeper, error) {
	base := w.scenario(o.seed, o.smoke)
	ss, err := sweepScenarios(base)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "ibcc-bench-sweep-")
	if err != nil {
		return nil, err
	}
	return &sweeper{base: base, scen: ss, tmp: tmp,
		out: &workloadResult{Name: w.name, Seed: o.seed, Traced: traced, Params: paramsOf(&base, len(ss), sweepWorkers)}}, nil
}

func (sw *sweeper) close() { os.RemoveAll(sw.tmp) }

func (sw *sweeper) newStore() (*exp.Store, error) {
	sw.nStor++
	return exp.NewStore(filepath.Join(sw.tmp, fmt.Sprintf("store-%d", sw.nStor)))
}

// pass runs one sweep pass as one operation and checks it: no error (a
// checker violation fails the sweep), no store error, the expected
// number of artifact hits, and the same points as the first pass.
func (sw *sweeper) pass(name string, workers int, store *exp.Store, spans *telemetry.Tracker, wantCached int) (*pass, error) {
	p, err := runPass(sw.base, workers, store, spans)
	sw.out.Ops++
	sink := sw.base.Fabric.SinkRate.Gbps()
	switch {
	case err != nil:
		sw.out.fail("%s pass: %v", name, err)
		return p, nil
	case p.packets == 0:
		return nil, fmt.Errorf("%s pass delivered no packets", name)
	case len(p.storeErrs) > 0:
		sw.out.fail("%s pass: artifact store: %v", name, p.storeErrs[0])
	case p.cached != wantCached:
		sw.out.fail("%s pass: %d of %d jobs came from artifacts, want %d", name, p.cached, len(sw.scen), wantCached)
	case store != nil && store.Len() != len(sw.scen):
		sw.out.fail("%s pass: store holds %d artifacts, want %d", name, store.Len(), len(sw.scen))
	case sw.first != nil && !slices.Equal(p.points, sw.first.points):
		sw.out.fail("%s pass returned different points than the first pass", name)
	}
	for _, pt := range p.points {
		if pt.HotOn > sink || pt.HotOff > sink {
			sw.out.fail("%s pass: p=%d hotspots receive above the %.3f Gbps sink rate", name, pt.P, sink)
		}
	}
	if sw.first == nil {
		sw.first = p
	}
	return p, nil
}

func (sw *sweeper) simulated(l layers) {
	l.exact("sim.events", float64(sw.first.events), "count")
	l.exact("sim.events_per_packet", float64(sw.first.events)/float64(sw.first.packets), "1/packet")
	l.exact("fabric.packets_delivered", float64(sw.first.packets), "count")
}

// runSweep is the untraced sweep run: warm-up pass, set-up timing, cold
// instrumented passes into fresh stores (the timed operations), and one
// warm pass that must be served entirely from the last store.
func runSweep(w *workload, o runOpts) (*workloadResult, error) {
	sw, err := newSweeper(w, o, false)
	if err != nil {
		return nil, err
	}
	defer sw.close()
	out := sw.out

	store, err := sw.newStore()
	if err != nil {
		return nil, err
	}
	if _, err := runPass(warmupScenario(sw.base), sweepWorkers, store, nil); err != nil {
		return nil, err
	}
	setup, err := measureSetup(sw.scen)
	if err != nil {
		return nil, err
	}

	var ops samples
	b := newBudget(o.secs)
	for rep := 0; rep < o.repsFor(w) && b.more(); rep++ {
		os.RemoveAll(store.Dir())
		if store, err = sw.newStore(); err != nil {
			return nil, err
		}
		p, err := sw.pass(fmt.Sprintf("cold %d", rep), sweepWorkers, store, nil, 0)
		if err != nil {
			return nil, err
		}
		b.ran(p.wall)
		if p.packets == 0 {
			continue
		}
		ops.add(p.wall, p.allocs, p.packets)
	}
	if len(ops.wall) == 0 {
		return out, nil
	}
	if _, err := sw.pass("warm", sweepWorkers, store, nil, len(sw.scen)); err != nil {
		return nil, err
	}
	out.Exact = layers{}
	sw.simulated(out.Exact)
	out.EndToEnd = ops.endToEnd(setup)
	return out, nil
}

// runSweepTraced is the sweep's traced run: a serial and a 2-worker
// bare pass (par), an instrumented pass without and with job spans
// (exp, tracing overhead), and a warm pass (resume).
func runSweepTraced(w *workload, o runOpts) (*workloadResult, error) {
	sw, err := newSweeper(w, o, true)
	if err != nil {
		return nil, err
	}
	defer sw.close()
	out := sw.out
	out.PerLayer = layers{}
	l := out.PerLayer
	rec := newRecorder()

	if _, err := runPass(warmupScenario(sw.base), sweepWorkers, nil, nil); err != nil {
		return nil, err
	}
	timed := func(name string, workers int, store *exp.Store, spans *telemetry.Tracker, wantCached int) (*pass, int, error) {
		op := rec.begin("sweep:"+name, 0)
		p, err := sw.pass(name, workers, store, spans, wantCached)
		rec.end(op)
		if err == nil && p.points == nil {
			err = fmt.Errorf("%s pass failed: %v", name, out.Failures)
		}
		return p, op, err
	}

	serial, _, err := timed("serial-bare", 1, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	bare, _, err := timed("bare", sweepWorkers, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	store, err := sw.newStore()
	if err != nil {
		return nil, err
	}
	inst, _, err := timed("instrumented", sweepWorkers, store, nil, 0)
	if err != nil {
		return nil, err
	}
	if store, err = sw.newStore(); err != nil {
		return nil, err
	}
	tracker := telemetry.NewTracker()
	traced, op, err := timed("spans", sweepWorkers, store, tracker, 0)
	if err != nil {
		return nil, err
	}
	st := tracker.Stats()
	start := time.Duration(rec.spans[op-1].StartNs)
	for _, j := range st.Recent {
		end := start + traced.jobEnd[j.Name]
		rec.add("job:"+j.Name, op, end-time.Duration(j.MS*float64(time.Millisecond)), end)
	}
	var artifactBytes int64
	files, err := os.ReadDir(store.Dir())
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		if info, err := f.Info(); err == nil && !f.IsDir() {
			artifactBytes += info.Size()
		}
	}
	warm, _, err := timed("warm", sweepWorkers, store, nil, len(sw.scen))
	if err != nil {
		return nil, err
	}

	sw.simulated(l)
	events := float64(sw.first.events)
	l.set("sim.ns_per_event", float64(bare.wall.Nanoseconds())/events, "ns/event")
	l.set("sim.events_per_s", events/bare.wall.Seconds(), "1/s")
	l.set("par.speedup_x", serial.wall.Seconds()/bare.wall.Seconds(), "x")
	l.set("par.worker_util_pct", 100*st.WorkerUtil, "%")
	l.set("exp.job_p50_ms", st.JobMS.P50, "ms")
	l.set("exp.job_max_ms", st.JobMS.Max, "ms")
	l.set("exp.store_save_ms", traced.save.Seconds()*1e3, "ms")
	l.set("exp.artifact_bytes", float64(artifactBytes), "bytes")
	l.set("exp.resume_ms", warm.wall.Seconds()*1e3, "ms")
	l.set("trace.overhead_pct", 100*(traced.wall.Seconds()/inst.wall.Seconds()-1), "%")
	// A checker violation fails the sweep, which pass() has already
	// counted; passes that returned points ran clean.
	l.exact("check.violations", 0, "count")
	if _, _, err := buildLayers(l, sw.base); err != nil {
		return nil, err
	}
	out.TraceFile, err = rec.write(o.traceDir, w.name, o.seed)
	return out, err
}

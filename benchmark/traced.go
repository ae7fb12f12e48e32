package main

import (
	"bytes"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// The traced run is a subtraction ladder: the same scenario and seed is
// re-run with exactly one thing attached per leg, and every overhead is
// expressed against the plain leg of the same run. Each layer is
// measured from outside, by timing calls into its public functions.

// tracedDiv divides the measurement window for the traced ladder, which
// re-runs the scenario eight or nine times.
const tracedDiv = 2

// replayEvents caps the event-timestamp window the spans leg records
// for the kernel replay (8 bytes each).
const replayEvents = 4 << 20

// pullCalls is how many Generator.Pull calls traffic.pull_ns averages.
const pullCalls = 1 << 20

// leg is one finished scenario run of the ladder; build and execute are
// its span ids.
type leg struct {
	build, execute int
	wall           time.Duration
	in             *core.Instance
	res            *core.Result
}

// tracer runs the ladder's legs and records their spans.
type tracer struct {
	s     core.Scenario
	out   *workloadResult
	rec   *recorder
	plain leg
}

// run builds the scenario, lets attach instrument the instance, and
// times Execute. Each leg is one operation with its own span tree.
// extraEvents is what the leg's instrumentation adds to sim.events.
func (t *tracer) run(name string, attach func(*core.Instance), extraEvents uint64) (leg, error) {
	op := t.rec.begin(name, 0)
	b := t.rec.begin("build", op)
	in, err := core.Build(t.s)
	t.rec.end(b)
	if err != nil {
		return leg{}, err
	}
	if attach != nil {
		attach(in)
	}
	runtime.GC()
	e := t.rec.begin("execute", op)
	res := in.Execute()
	t.rec.end(e)
	t.rec.end(op)
	l := leg{build: b, execute: e, wall: t.rec.duration(e), in: in, res: res}
	t.out.Ops++
	if t.plain.res != nil && res.Events != t.plain.res.Events+extraEvents {
		t.out.fail("%s leg executed %d events, the plain leg %d (+%d expected)", name, res.Events, t.plain.res.Events, extraEvents)
	}
	return l, nil
}

// overheadPct is a leg's host-time cost over the plain leg.
func (t *tracer) overheadPct(l leg) float64 {
	return 100 * (l.wall.Seconds()/t.plain.wall.Seconds() - 1)
}

// hookTimer accumulates host time spent inside the cc backend's fabric
// hooks. Reading the clock twice per call costs about as much as a
// cheap hook, so the pair's own cost is calibrated and subtracted.
type hookTimer struct {
	calls, marking uint64
	ns             int64
}

func (h *hookTimer) wrap(in fabric.Hooks) fabric.Hooks {
	type markHook = func(sw, port int, p *ib.Packet, st fabric.PortVLState)
	timed := func(f markHook) markHook {
		if f == nil {
			return nil
		}
		return func(sw, port int, p *ib.Packet, st fabric.PortVLState) {
			t0 := time.Now()
			f(sw, port, p, st)
			h.ns += int64(time.Since(t0))
			h.calls++
			h.marking++
		}
	}
	out := in
	out.SwitchEnqueue = timed(in.SwitchEnqueue)
	out.SwitchDeparture = timed(in.SwitchDeparture)
	if f := in.Deliver; f != nil {
		out.Deliver = func(lid ib.LID, p *ib.Packet) {
			t0 := time.Now()
			f(lid, p)
			h.ns += int64(time.Since(t0))
			h.calls++
		}
	}
	return out
}

// clockPairNs measures what one time.Now/time.Since pair adds to the
// interval it brackets.
func clockPairNs() float64 {
	const n = 1 << 20
	var inside int64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		inside += int64(time.Since(t0))
	}
	return float64(inside) / n
}

// replayer re-plays recorded event timestamps into a fresh kernel with
// no model behind them: every fired event schedules the next recorded
// timestamp, so the future-event list stays at a fixed depth.
type replayer struct {
	s    *sim.Simulator
	ts   []sim.Time
	next int
}

func (r *replayer) Act() {
	if r.next < len(r.ts) {
		r.s.ScheduleActionAt(r.ts[r.next], r)
		r.next++
	}
}

// replay returns the kernel-alone cost per event of the recorded
// schedule at the given FEL depth (median of three replays).
func replay(ts []sim.Time, depth int) float64 {
	if depth < 1 {
		depth = 1
	}
	var runs []float64
	for i := 0; i < 3; i++ {
		r := &replayer{s: sim.New(), ts: ts}
		for r.next < depth && r.next < len(ts) {
			r.Act()
		}
		t0 := time.Now()
		n := r.s.Run()
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return summarize("ns/event", runs).Median
}

// pullNs times Generator.Pull on a stand-alone generator configured like
// the workload's busiest node role, advancing simulated time by each
// packet's injection time.
func pullNs(s *core.Scenario, calls int) (float64, error) {
	p := 100 // silent forests: a C node sends everything to its hotspot
	if s.FracBPct > 0 {
		p = s.PPercent
	}
	root := sim.NewRNG(s.Seed)
	var hot traffic.Targeter = traffic.StaticTarget(1)
	if s.HotspotLifetime > 0 {
		slots := int((s.Warmup+s.Measure)/s.HotspotLifetime) + 2
		hot = traffic.NewMovingTarget(s.HotspotLifetime, slots, s.NumNodes(), root.Derive(2))
	}
	pool := ib.NewPacketPool()
	g, err := traffic.NewGenerator(traffic.NodeConfig{
		LID: 0, NumNodes: s.NumNodes(), PPercent: p, Hotspot: hot,
		InjectionRate: s.Fabric.InjectionRate, BacklogCap: s.BacklogCap,
		Pool: pool, RNG: root.Derive(1000),
	})
	if err != nil {
		return 0, err
	}
	now := sim.Time(0)
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		pkt, wake := g.Pull(now)
		switch {
		case pkt != nil:
			now = now.Add(s.Fabric.InjectionRate.TxTime(pkt.WireBytes()))
			pool.Put(pkt)
		case wake == sim.MaxTime:
			now = now.Add(sim.Microsecond)
		default:
			now = wake
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls), nil
}

// medianMs runs fn n times and returns the median duration in ms, a
// collection forced before each call as in measureSetup, so the parts
// of a build are timed the way the whole is.
func medianMs(n int, fn func() error) (float64, error) {
	var ms []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		err := fn()
		ms = append(ms, time.Since(t0).Seconds()*1e3)
		if err != nil {
			return 0, err
		}
	}
	return summarize("ms", ms).Median, nil
}

// buildLayers times the set-up path layer by layer: topology and
// routing, fabric wiring, and core.Build as a whole. It returns the
// first two medians as durations so the caller can place them as spans.
func buildLayers(l layers, s core.Scenario) (topoD, fabricD time.Duration, err error) {
	var tp *topo.Topology
	var lft *topo.Routing
	topoMs, err := medianMs(5, func() (err error) {
		if tp, err = topo.FatTree(s.Radix); err == nil {
			lft, err = topo.ComputeLFT(tp)
		}
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	fabricMs, err := medianMs(5, func() error {
		_, err := fabric.New(sim.New(), tp, lft, s.Fabric, fabric.Hooks{})
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	setup, err := measureSetup([]core.Scenario{s})
	if err != nil {
		return 0, 0, err
	}
	m0 := mallocs()
	if _, err := core.Build(s); err != nil {
		return 0, 0, err
	}
	l.set("topo.build_ms", topoMs, "ms")
	l.set("fabric.new_ms", fabricMs, "ms")
	l.set("core.build_ms", summarize("s", setup).Median*1e3, "ms")
	l.set("core.build_allocs", float64(mallocs()-m0), "count")
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	return ms(topoMs), ms(fabricMs), nil
}

// runTraced runs the ladder for a single-scenario workload.
func runTraced(w *workload, o runOpts) (*workloadResult, error) {
	s := w.scenario(o.seed, o.smoke)
	s.Measure /= tracedDiv
	out := &workloadResult{Name: w.name, Seed: o.seed, Traced: true, Params: paramsOf(&s, 1, 1), PerLayer: layers{}}
	l := out.PerLayer
	t := &tracer{s: s, out: out, rec: newRecorder()}
	end := sim.Time(0).Add(s.Warmup + s.Measure)
	calls := pullCalls
	if o.smoke {
		calls >>= 4
	}

	if _, err := core.Run(warmupScenario(s)); err != nil {
		return nil, err
	}
	clockNs := clockPairNs()

	// Leg 1 — plain: nothing attached. Every simulated count and every
	// overhead below refers to this leg.
	var err error
	if t.plain, err = t.run("plain", nil, 0); err != nil {
		return nil, err
	}
	plain := t.plain
	events := float64(plain.res.Events)
	plainNs := float64(plain.wall.Nanoseconds())
	got := outcomeOf(plain.in, plain.res)
	if got.packets == 0 {
		out.fail("plain leg delivered no packets")
		return out, nil
	}
	if why := sanity(&s, plain.res); why != "" {
		out.fail("plain leg: %s", why)
	}
	simulated(l, got, plain.res)
	l.set("sim.ns_per_event", plainNs/events, "ns/event")
	l.set("sim.events_per_s", events/plain.wall.Seconds(), "1/s")
	l.exact("sim.peak_pending", float64(plain.in.Net.Sim().PeakPending()), "count")
	pool := plain.in.Net.PacketPool().Stats()
	l.exact("ib.pool_gets", float64(pool.Gets), "count")
	l.exact("ib.pool_misses", float64(pool.Misses), "count")
	var tx uint64
	for lid := 0; lid < plain.in.Net.NumHosts(); lid++ {
		tx += plain.in.Net.HCA(ib.LID(lid)).Counters().TxPackets
	}
	l.exact("traffic.tx_packets", float64(tx), "count")

	// Leg 2 — spans: timed wrappers around the cc backend's hooks, an
	// exec hook recording event timestamps and FEL depth for the
	// replay, and a second collector so the reduce step can be timed
	// on the finished network (its snapshot is the one extra event).
	var ht hookTimer
	ts := make([]sim.Time, 0, replayEvents) // sized up front: no regrowth inside the timed leg
	var depthSum, depthN, seen uint64
	var coll *metrics.Collector
	measureFrom := sim.Time(0).Add(s.Warmup)
	spans, err := t.run("spans", func(in *core.Instance) {
		if in.Backend != nil {
			in.Net.SetHooks(ht.wrap(in.Backend.Hooks()))
		}
		simr := in.Net.Sim()
		simr.SetExecHook(func(at sim.Time, _ uint64) {
			if seen++; seen&1023 == 0 {
				depthSum += uint64(simr.Pending())
				depthN++
			}
			if at >= measureFrom && len(ts) < replayEvents {
				ts = append(ts, at)
			}
		})
		coll = metrics.NewCollector(in.Net, measureFrom)
	}, 1)
	if err != nil {
		return nil, err
	}
	l.set("trace.overhead_pct", t.overheadPct(spans), "%")
	hookNs := float64(ht.ns) - clockNs*float64(ht.calls)
	if hookNs < 0 {
		hookNs = 0
	}
	l.exact("cc.hook_calls", float64(ht.calls), "count")
	if ht.calls > 0 {
		l.set("cc.hook_ns_per_call", hookNs/float64(ht.calls), "ns/call")
		l.exact("cc.mark_ratio", float64(plain.res.CCStats.FECNMarked)/float64(ht.marking), "ratio")
	} else {
		l.set("cc.hook_ns_per_call", 0, "ns/call")
		l.exact("cc.mark_ratio", 0, "ratio")
		if plain.res.CCStats.FECNMarked != 0 {
			out.fail("no cc hook ran but %d packets were FECN-marked", plain.res.CCStats.FECNMarked)
		}
	}
	l.set("cc.hook_share_pct", 100*hookNs/plainNs, "%")

	t0 := time.Now()
	rates := coll.Rates()
	sum := metrics.Summarize(rates, spans.in.Pop.HotspotSet)
	lat := coll.Latency()
	reduceD := time.Since(t0)
	l.set("metrics.reduce_us", reduceD.Seconds()*1e6, "us")
	if sum != got.summary || lat != got.latency {
		out.fail("reduce on the spans leg gives %v %v, the plain leg %v %v", sum, lat, got.summary, got.latency)
	}

	// Leg 3 — kernel alone: the recorded schedule replayed with no-op
	// actions at the run's mean FEL depth.
	depth := 1
	if depthN > 0 {
		depth = int(depthSum / depthN)
	}
	replayNs := replay(ts, depth)
	l.set("sim.replay_ns_per_event", replayNs, "ns/event")
	l.set("sim.kernel_share_pct", 100*replayNs/(plainNs/events), "%")
	l.set("fabric.self_ns_per_event", plainNs/events-replayNs-hookNs/events, "ns/event")

	topoD, fabricD, err := buildLayers(l, s)
	if err != nil {
		return nil, err
	}
	t.rec.child("topo", spans.build, topoD, 0)
	t.rec.child("fabric.New", spans.build, fabricD, 0)
	t.rec.child("cc.hooks", spans.execute, time.Duration(hookNs), ht.calls)
	t.rec.child("reduce", spans.execute, reduceD, 0)

	pull, err := pullNs(&s, calls)
	if err != nil {
		return nil, err
	}
	l.set("traffic.pull_ns", pull, "ns/call")

	// Legs 4–8 — one observer each.
	bus, err := t.run("bus", func(in *core.Instance) { in.Observe(core.ObserveOpts{}) }, 0)
	if err != nil {
		return nil, err
	}
	l.set("obs.bus_overhead_pct", t.overheadPct(bus), "%")

	var ob *core.Observation
	counters, err := t.run("counters", func(in *core.Instance) {
		ob = in.Observe(core.ObserveOpts{Counters: true})
	}, 0)
	if err != nil {
		return nil, err
	}
	marks, stalls, _, _ := ob.Registry.Totals()
	l.set("obs.counters_overhead_pct", t.overheadPct(counters), "%")
	l.exact("fabric.credit_stalls", float64(stalls), "count")
	l.exact("fabric.fecn_marks_seen", float64(marks), "count")

	var dig *obs.Digest
	var published uint64
	digest, err := t.run("digest", func(in *core.Instance) {
		dig = in.AttachDigest()
		in.Observe(core.ObserveOpts{}).Bus.Subscribe(obs.ConsumerFunc(func(obs.Event) { published++ }))
	}, 0)
	if err != nil {
		return nil, err
	}
	out.Digest = dig.Sum()
	l.set("obs.digest_overhead_pct", t.overheadPct(digest), "%")
	l.exact("obs.events_published", float64(published), "count")
	l.exact("core.digest_records", float64(dig.Records()), "count")

	var smp *telemetry.Sampler
	sampler, err := t.run("sampler", func(in *core.Instance) {
		smp = telemetry.NewSampler(s.Name, 10*sim.Microsecond)
		in.Observe(core.ObserveOpts{Telemetry: smp})
	}, 0)
	if err != nil {
		return nil, err
	}
	smp.Finish()
	l.set("telemetry.sampler_overhead_pct", t.overheadPct(sampler), "%")

	var violations func() int
	checker, err := t.run("checker", func(in *core.Instance) {
		ck := in.Check(core.CheckOpts{})
		violations = func() int { return ck.Report().Total }
	}, 0)
	if err != nil {
		return nil, err
	}
	l.set("check.overhead_pct", t.overheadPct(checker), "%")
	l.exact("check.violations", float64(violations()), "count")
	if v := violations(); v != 0 {
		out.fail("the invariant checker reported %d violations", v)
	}

	// Leg 9 — checkpoint at the mid-run instant, restore, continue; the
	// continuation's digest must equal the uninterrupted digest leg's.
	if w.ckpt {
		if err := t.checkpoint(end, out.Digest); err != nil {
			return nil, err
		}
	}

	out.TraceFile, err = t.rec.write(o.traceDir, w.name, o.seed)
	return out, err
}

// checkpoint is the ladder's last leg (see runTraced).
func (t *tracer) checkpoint(end sim.Time, wantDigest string) error {
	l := t.out.PerLayer
	op := t.rec.begin("ckpt", 0)
	defer t.rec.end(op)
	in, err := core.Build(t.s)
	if err != nil {
		return err
	}
	in.AttachDigest()
	in.Net.Start()
	in.Net.Sim().RunUntil(end / 2)

	var buf bytes.Buffer
	sv := t.rec.begin("ckpt.save", op)
	err = in.Checkpoint(&buf)
	t.rec.end(sv)
	if err != nil {
		return err
	}
	rs := t.rec.begin("ckpt.restore", op)
	re, err := core.Restore(bytes.NewReader(buf.Bytes()))
	t.rec.end(rs)
	if err != nil {
		return err
	}
	res := re.Execute()

	t.out.Ops++
	if got := re.AttachDigest().Sum(); got != wantDigest || res.Events != t.plain.res.Events {
		t.out.fail("restored continuation: digest %s, %d events; uninterrupted: %s, %d", got, res.Events, wantDigest, t.plain.res.Events)
	}
	l.set("ckpt.save_ms", t.rec.duration(sv).Seconds()*1e3, "ms")
	l.exact("ckpt.bytes", float64(buf.Len()), "bytes")
	l.set("ckpt.restore_ms", t.rec.duration(rs).Seconds()*1e3, "ms")
	return nil
}

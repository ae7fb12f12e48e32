package core

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/ib"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Result collects everything a single run produced.
type Result struct {
	// Name echoes the scenario label.
	Name string
	// CCOn echoes whether congestion control ran.
	CCOn bool
	// Backend is the resolved congestion-control backend name ("" when
	// CC is off).
	Backend string
	// Summary holds the class-aggregated receive rates.
	Summary metrics.Summary
	// Rates holds the per-node rates behind the summary.
	Rates metrics.NodeRates
	// WholeRun is the class summary over the whole run, from time 0 to
	// the end, read from the end-of-run counters: the window the paper
	// is inferred to have averaged. It is nil in an artifact written
	// before it existed, which exp.Store therefore treats as a miss.
	WholeRun *metrics.Classes `json:",omitempty"`
	// TMaxGbps is the theoretical non-hotspot maximum for the
	// scenario (figures 5–8 plot it alongside the measurements).
	TMaxGbps float64
	// CCStats reports congestion-control activity (zero when off).
	CCStats cc.Stats
	// Latency is the network-wide packet latency distribution over the
	// measurement window.
	Latency metrics.LatencySummary
	// Events is the number of simulation events executed.
	Events uint64
	// Hotspots is the static hotspot set of the run.
	Hotspots []ib.LID
	// PopB/PopC/PopV count the node roles.
	PopB, PopC, PopV int
	// RoleRxGbps is the average receive-payload rate per role
	// (indexed by Role), for fairness inspection across classes.
	RoleRxGbps [3]float64
	// RoleTxGbps is the average injected-payload rate per role.
	RoleTxGbps [3]float64
	// Faults reports what the fault injector did, nil when the scenario
	// carried no plan.
	Faults *fault.Stats
}

// Instance is a fully assembled but not yet executed scenario. Build
// creates it; callers may attach instrumentation (hooks are already
// installed, so use the network's and manager's accessors) before
// calling Execute. Run covers the common build-and-execute path.
type Instance struct {
	Scenario Scenario
	// Net is the assembled fabric.
	Net *fabric.Network
	// Backend is the congestion control backend, nil when CC is off.
	Backend cc.Backend
	// CC is the classic IB CCA manager when the scenario runs the
	// default ibcc backend; nil for every other backend and when CC is
	// off. It exposes the manager-specific accessors (CCTI, Params) the
	// inspection tools read.
	CC *cc.Manager
	// Pop is the node-role assignment.
	Pop Population

	collector *metrics.Collector
	executed  bool
	// restored marks an instance rebuilt from a checkpoint: its pending
	// events came from the snapshot, so Execute must not Start the
	// fabric again.
	restored bool
	// dig is the optional trajectory digest riding the run (AttachDigest
	// or a restored snapshot's digest state).
	dig *obs.Digest
	// sources holds the generators in LID order (nil entries for idle
	// nodes); the invariant checker's custody census walks them.
	sources []*traffic.Generator
	// busv is the lazily created flight-recorder bus shared by Observe
	// and Check.
	busv *obs.Bus
	// checker, when non-nil, has Execute stop at its sweep windows.
	checker *check.Checker
	// injector, when non-nil, executes the scenario's fault plan.
	injector *fault.Injector
}

// Run executes one scenario end to end.
func Run(s Scenario) (*Result, error) {
	in, err := Build(s)
	if err != nil {
		return nil, err
	}
	return in.Execute(), nil
}

// Build assembles the topology, fabric, congestion control, population
// and generators for a scenario without running it.
func Build(s Scenario) (*Instance, error) {
	if s.SeparateHotspotVL && s.Fabric.NumVLs < 2 {
		s.Fabric.NumVLs = 2
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	tp, err := topo.FatTree(s.Radix)
	if err != nil {
		return nil, err
	}
	lft, err := topo.ComputeLFT(tp)
	if err != nil {
		return nil, err
	}
	simr := sim.New()
	net, err := fabric.New(simr, tp, lft, s.Fabric, fabric.Hooks{})
	if err != nil {
		return nil, err
	}

	// The population and targeters are drawn before the backend is
	// created so the clairvoyant oracle can read its ground truth;
	// neither the backend constructors nor the draws consume the other's
	// randomness, so the order swap leaves every trajectory untouched
	// (the golden kernel-signature tests pin this).
	root := sim.NewRNG(s.Seed)
	pop := assignRoles(&s, root.Derive(1))
	targeters := buildTargeters(&s, &pop, root.Derive(2))

	var throttle traffic.Throttle
	var backend cc.Backend
	var mgr *cc.Manager
	if s.CCOn {
		bcfg := cc.BackendConfig{Params: s.CC, InjectionRate: s.Fabric.InjectionRate}
		if s.Backend == "oracle" {
			bcfg.OracleShares = oracleShares(&s, &pop, targeters)
		}
		backend, err = cc.NewBackend(s.Backend, net, bcfg)
		if err != nil {
			return nil, err
		}
		net.SetHooks(backend.Hooks())
		if th := backend.Throttle(); th != nil {
			throttle = th
		}
		mgr, _ = backend.(*cc.Manager)
	}

	// Every generator, RNG and flow table comes from one slab each (see
	// traffic.NewGenerators); nodes without traffic get no generator.
	rngs := make([]sim.RNG, s.NumNodes())
	cfgs := make([]traffic.NodeConfig, 0, s.NumNodes())
	for node := 0; node < s.NumNodes(); node++ {
		role := pop.Roles[node]
		if role == RoleC && !s.CNodesActive {
			continue
		}
		p := 0
		var hs traffic.Targeter
		switch role {
		case RoleC:
			p = 100
			hs = targeters[pop.Subset[node]]
		case RoleB:
			p = s.PPercent
			hs = targeters[pop.Subset[node]]
		}
		rngs[node] = root.DeriveValue(1000 + uint64(node))
		cfgs = append(cfgs, traffic.NodeConfig{
			LID:           ib.LID(node),
			NumNodes:      s.NumNodes(),
			PPercent:      p,
			Hotspot:       hs,
			InjectionRate: s.Fabric.InjectionRate,
			BacklogCap:    s.BacklogCap,
			Throttle:      throttle,
			SLThrottle:    s.CCOn && s.CC.SLLevel,
			HotspotVL:     hotspotVL(&s),
			Pool:          net.PacketPool(),
			RNG:           &rngs[node],
		})
	}
	gens, err := traffic.NewGenerators(cfgs)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sources := make([]*traffic.Generator, s.NumNodes())
	for i, gen := range gens {
		lid := cfgs[i].LID
		net.HCA(lid).SetSource(gen)
		sources[lid] = gen
	}

	// A nil or zero plan takes the exact code path a fault-free build
	// always took: no injector, no dropper, bit-identical trajectory.
	var inj *fault.Injector
	if !s.Faults.Zero() {
		inj, err = fault.NewInjector(net, s.Faults)
		if err != nil {
			return nil, err
		}
	}

	collector := metrics.NewCollector(net, sim.Time(0).Add(s.Warmup))
	return &Instance{
		Scenario:  s,
		Net:       net,
		Backend:   backend,
		CC:        mgr,
		Pop:       pop,
		collector: collector,
		sources:   sources,
		injector:  inj,
	}, nil
}

// Execute runs the assembled scenario to the end of its measurement
// window and reduces the counters. It may be called once.
func (in *Instance) Execute() *Result {
	res, err := in.ExecuteWithCheckpoints(CkptOpts{})
	if err != nil {
		panic(err) // only writing a checkpoint fails, and none was asked for
	}
	return res
}

// ExecuteWithCheckpoints is Execute writing a crash-safe rolling
// checkpoint at every cadence boundary of o, and the instance's one run
// loop: the simulator is stepped to the next instant an attached
// instrument asks to stop at — the checker's sweep window, the
// checkpoint cadence — and with neither attached that is a single
// RunUntil(end). Stops fall between events and schedule nothing, so the
// trajectory and the result are those of the unstopped run however many
// instruments share the loop.
func (in *Instance) ExecuteWithCheckpoints(o CkptOpts) (*Result, error) {
	if in.executed {
		panic("core: instance executed twice")
	}
	in.executed = true
	s := &in.Scenario
	simr := in.Net.Sim()
	in.start()
	end := sim.Time(0).Add(s.Warmup + s.Measure)
	keeper := ckpt.Keeper{Dir: o.Dir, Keep: o.Keep}
	for {
		save := ckpt.NextCadence(simr.Now(), o.Every)
		sweep := sim.MaxTime
		if in.checker != nil {
			sweep = in.checker.NextSweep()
		}
		next := min(end, save, sweep)
		simr.RunUntil(next)
		if in.checker != nil && (next == sweep || next == end) {
			in.checker.Sweep()
		}
		if next == end {
			return in.reduce(), nil
		}
		if next == save {
			snap, err := in.Snapshot()
			if err != nil {
				return nil, err
			}
			path, err := keeper.Save(snap)
			if err != nil {
				return nil, err
			}
			if o.OnSave != nil {
				o.OnSave(path, next)
			}
		}
	}
}

// start kicks the fabric's sources exactly once. A restored instance
// skips the kick: its HCA wake/tx events were rebuilt from the
// checkpoint, and starting again would double-schedule them.
func (in *Instance) start() {
	if !in.restored {
		in.Net.Start()
	}
}

// reduce turns the run's counters into a Result once the simulation has
// reached the end of the measurement window.
func (in *Instance) reduce() *Result {
	s := &in.Scenario
	simr := in.Net.Sim()
	rates := in.collector.Rates()
	whole := in.collector.WholeRun(in.Pop.HotspotSet)
	res := &Result{
		Name:     s.Name,
		CCOn:     s.CCOn,
		Summary:  metrics.Summarize(rates, in.Pop.HotspotSet),
		Rates:    rates,
		WholeRun: &whole,
		TMaxGbps: s.TMaxNonHotspotGbps(),
		Latency:  in.collector.Latency(),
		Events:   simr.Processed(),
		Hotspots: in.Pop.Hotspots,
	}
	res.PopB, res.PopC, res.PopV = in.Pop.Counts()
	var counts [3]int
	for node, role := range in.Pop.Roles {
		counts[role]++
		res.RoleRxGbps[role] += rates.RxPayload[node] / 1e9
		res.RoleTxGbps[role] += rates.TxPayload[node] / 1e9
	}
	for r := range counts {
		if counts[r] > 0 {
			res.RoleRxGbps[r] /= float64(counts[r])
			res.RoleTxGbps[r] /= float64(counts[r])
		}
	}
	if in.Backend != nil {
		res.Backend = in.Backend.Name()
		res.CCStats = in.Backend.Stats()
	}
	if in.injector != nil {
		res.Faults = in.injector.Stats()
	}
	return res
}

// hotspotVL returns the VL carrying hotspot traffic: 1 under
// SeparateHotspotVL, otherwise the shared lane 0.
func hotspotVL(s *Scenario) ib.VL {
	if s.SeparateHotspotVL {
		return 1
	}
	return 0
}

// buildTargeters creates one hotspot targeter per subset: static targets
// for the silent/windy forests, shared moving sequences for the moving
// forests.
func buildTargeters(s *Scenario, pop *Population, rng *sim.RNG) []traffic.Targeter {
	out := make([]traffic.Targeter, s.NumHotspots)
	if s.HotspotLifetime <= 0 {
		for i, h := range pop.Hotspots {
			out[i] = traffic.StaticTarget(h)
		}
		return out
	}
	slots := int((s.Warmup+s.Measure)/s.HotspotLifetime) + 2
	for i := range out {
		mt := traffic.NewMovingTarget(s.HotspotLifetime, slots, s.NumNodes(), rng.Derive(uint64(i)))
		// Slot 0 starts at the subset's drawn hotspot, so a moving run
		// degenerates to the static one as the lifetime grows.
		mt.Seq[0] = pop.Hotspots[i]
		out[i] = mt
	}
	return out
}

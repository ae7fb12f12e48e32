package telemetry_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// differentialCorpus is the small-scenario corpus the aggregate tier is
// held to its per-event references on: both radices the sweep benchmark
// and the unit suites run at, every CC backend family (classic CCA, off,
// the oracle whose gate publishes no CCTI steps), hotspots that move
// so congestion trees form and dissolve inside a run, hotspot traffic on
// its own lane, and a fault plan that flaps a switch port and a host
// link and drops every class — credit updates included, whose publishes
// the fabric gates on Bus.Wants.
func differentialCorpus() []core.Scenario {
	base := func(radix int, name string) core.Scenario {
		s := core.Default(radix)
		s.Name = name
		s.Warmup = 100 * sim.Microsecond
		s.Measure = 300 * sim.Microsecond
		return s
	}
	var out []core.Scenario
	add := func(s core.Scenario, mod func(*core.Scenario)) {
		if mod != nil {
			mod(&s)
		}
		out = append(out, s)
	}
	add(base(8, "r8 cc on"), nil)
	add(base(8, "r8 cc off"), func(s *core.Scenario) { s.CCOn = false })
	add(base(8, "r8 oracle"), func(s *core.Scenario) { s.Backend = "oracle" })
	add(base(12, "r12 windy cc on"), func(s *core.Scenario) { s.FracBPct, s.PPercent = 100, 60 })
	add(base(12, "r12 cc off"), func(s *core.Scenario) { s.CCOn = false; s.Seed = 7 })
	add(base(8, "r8 moving hotspots"), func(s *core.Scenario) { s.HotspotLifetime = 80 * sim.Microsecond; s.Seed = 3 })
	add(base(8, "r8 hotspot lane"), func(s *core.Scenario) { s.SeparateHotspotVL = true })
	add(base(8, "r8 flaps and drops"), func(s *core.Scenario) {
		us := func(n int64) sim.Time { return sim.Time(n * int64(sim.Microsecond)) }
		s.Faults = &fault.Plan{
			Seed:    11,
			Horizon: sim.Time(0).Add(s.Warmup + s.Measure),
			Flaps: []fault.Flap{
				{Link: fault.LinkRef{AtSwitch: true, Node: 0, Port: 5}, At: us(120), Dur: 60 * sim.Microsecond},
				{Link: fault.LinkRef{Node: 3}, At: us(200), Dur: 45 * sim.Microsecond},
			},
			Drop: fault.DropProbs{Data: 0.002, FECN: 0.01, CNP: 0.02, Ack: 0.01, Credit: 0.01},
		}
	})
	return out
}

// observed is everything one differential run leaves behind.
type observed struct {
	snap, refSnap []byte
	reg           *obs.Registry
	refReg        *telemetry.RefRegistry
	ref           *telemetry.RefSampler
	report        *check.Report
	events        uint64
}

// observe runs s with the checker, the sampler and the port counters on
// one bus — the configuration sweeps run under — and the per-event
// references subscribed beside them. refKernel puts the run on the
// reference heap, whose loop is the one hooked runs used to take.
func observe(t *testing.T, s core.Scenario, refKernel bool) observed {
	t.Helper()
	in, err := core.Build(s)
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	if refKernel {
		in.Net.Sim().UseReferenceFEL()
	}
	smp := telemetry.NewSampler(s.Name, 0)
	ob := in.Observe(core.ObserveOpts{Counters: true, Telemetry: smp})
	ck := in.Check(core.CheckOpts{})
	o := observed{reg: ob.Registry, refReg: &telemetry.RefRegistry{}, ref: telemetry.NewRefSampler(s.Name, 0)}
	o.ref.Attach(ob.Bus)
	o.refReg.Attach(ob.Bus)
	o.events = in.Execute().Events
	smp.Finish()
	o.ref.Finish()
	o.report = ck.Report()
	if o.snap, err = json.Marshal(smp.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if o.refSnap, err = json.Marshal(o.ref.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestAggregateTierMatchesPerEventReference: on every corpus scenario
// the sampler's snapshot marshals byte-identically to the per-event
// reference's, the bus's port table reads exactly as the per-event
// registry's (ports, every counter, totals, hottest port), and the
// checker's report on the wheel's hooked batched drain equals its report
// on the reference heap.
func TestAggregateTierMatchesPerEventReference(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus is not short")
	}
	for _, s := range differentialCorpus() {
		o := observe(t, s, false)

		if q, st, d := o.ref.PerHopEvents(); q == 0 || d == 0 || (st == 0 && s.CNodesActive) {
			t.Errorf("%s: idle scenario: %d queue samples, %d stalls, %d deliveries", s.Name, q, st, d)
		}
		if !bytes.Equal(o.snap, o.refSnap) {
			t.Errorf("%s: sampler snapshot differs from the per-event reference:\n  got  %s\n  want %s",
				s.Name, clip(o.snap), clip(o.refSnap))
		}

		var want []obs.PortKey
		o.refReg.Each(func(k obs.PortKey, rc *telemetry.RefPortCounters) {
			want = append(want, k)
			c := o.reg.Port(k.Switch, k.Port)
			if c == nil {
				t.Errorf("%s: port %v missing from the bus's table", s.Name, k)
				return
			}
			got := telemetry.RefPortCounters{
				FECNMarks: c.FECNMarks, CreditStalls: c.CreditStalls, FwdPackets: c.FwdPackets,
				Dropped: c.Dropped, PeakQueuedBytes: c.PeakQueuedBytes, FwdBytesVL: c.FwdBytesVL,
				HostPort: c.HostPort,
			}
			if got != *rc {
				t.Errorf("%s: port %v = %+v, per-event reference %+v", s.Name, k, got, *rc)
			}
		})
		if got := o.reg.Ports(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ports = %v, per-event reference %v", s.Name, got, want)
		}
		m, st, fp, fb := o.reg.Totals()
		rm, rst, rfp, rfb := o.refReg.Totals()
		if m != rm || st != rst || fp != rfp || fb != rfb || fp == 0 {
			t.Errorf("%s: totals = %d %d %d %d, per-event reference %d %d %d %d", s.Name, m, st, fp, fb, rm, rst, rfp, rfb)
		}
		k, c := o.reg.HottestPort()
		rk, rc := o.refReg.HottestPort()
		if k != rk || (c == nil) != (rc == nil) || (c != nil && c.FECNMarks != rc.FECNMarks) {
			t.Errorf("%s: hottest port %v %+v, per-event reference %v %+v", s.Name, k, c, rk, rc)
		}
		if s.Faults != nil {
			var dropped uint64
			o.reg.Each(func(_ obs.PortKey, c *obs.PortCounters) { dropped += c.Dropped })
			if dropped == 0 {
				t.Errorf("%s: no drop reached a switch port's counters", s.Name)
			}
		}

		if err := o.report.Err(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if o.report.EventsChecked != o.events || o.report.Sweeps == 0 {
			t.Errorf("%s: probed %d of %d events in %d sweeps", s.Name, o.report.EventsChecked, o.events, o.report.Sweeps)
		}
		onHeap := observe(t, s, true)
		if !reflect.DeepEqual(o.report, onHeap.report) {
			t.Errorf("%s: checker report on the wheel %+v, on the reference heap %+v", s.Name, o.report, onHeap.report)
		}
		if !bytes.Equal(o.snap, onHeap.snap) {
			t.Errorf("%s: sampler snapshot differs between the wheel and the reference heap", s.Name)
		}
	}
}

// clip shortens a snapshot for a failure message.
func clip(b []byte) string {
	if len(b) > 600 {
		return string(b[:600]) + "…"
	}
	return string(b)
}

// TestViolationDumpReadsBusTable: the checker owns no registry, so the
// dump a forced violation writes must get its port totals and hottest
// port from the bus's table — fed by the aggregate tier alone, no port
// event streamed.
func TestViolationDumpReadsBusTable(t *testing.T) {
	s := differentialCorpus()[0]
	in, err := core.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	ck := in.Check(core.CheckOpts{Diagnostics: &dump})
	bus := in.Observe(core.ObserveOpts{}).Bus
	in.Execute()
	if err := ck.Report().Err(); err != nil {
		t.Fatal(err)
	}
	// Force the violation after the run: a CCTI step no parameter set
	// allows, published on the run's own bus.
	bus.CCTIChanged(in.Net.Sim().Now(), 1, 2, 0, 60000)
	if ck.Report().Total != 1 {
		t.Fatalf("forced violation not recorded: %+v", ck.Report())
	}
	out := dump.String()
	for _, want := range []string{"check: first violation:", "check: ports fecn=", " stalls=", " fwd=", "check: hottest port sw"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ports fecn=0 ") || strings.Contains(out, " fwd=0 pkts") {
		t.Errorf("dump read an empty table:\n%s", out)
	}
}

// TestObservedRunBuildsNoPerHopEvents: with only a sampler and the
// checker attached — what every sweep run carries — the five per-packet
// kinds have no stream subscriber, so their publish helpers build no
// Event (Bus.Streams is the helpers' own gate), while the aggregate
// tier still wants them; message completion is closed in that tier, so
// KindMsgCompleted is not even wanted. A subscription that put any of
// them back on the stream would fail here deterministically, whatever
// the runner's noise.
func TestObservedRunBuildsNoPerHopEvents(t *testing.T) {
	s := differentialCorpus()[0]
	in, err := core.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	smp := telemetry.NewSampler(s.Name, 0)
	bus := in.Observe(core.ObserveOpts{Telemetry: smp}).Bus
	ck := in.Check(core.CheckOpts{})
	for _, k := range []obs.Kind{obs.KindQueueSampled, obs.KindPacketSent, obs.KindCreditStalled, obs.KindFECNMarked, obs.KindPacketDelivered} {
		if bus.Streams(k) || !bus.Wants(k) {
			t.Errorf("%v: streams %v, wants %v; want an aggregate-only kind", k, bus.Streams(k), bus.Wants(k))
		}
	}
	if k := obs.KindMsgCompleted; bus.Streams(k) || bus.Wants(k) {
		t.Errorf("%v: streams %v, wants %v; want neither", k, bus.Streams(k), bus.Wants(k))
	}
	in.Execute()
	smp.Finish()
	if err := ck.Report().Err(); err != nil {
		t.Fatal(err)
	}
	if snap := smp.Snapshot(); snap.QueuedKB.Sum() == 0 || snap.Stalls.Sum() == 0 || snap.HotspotGbps.Sum() == 0 ||
		len(snap.HotPorts) == 0 || snap.Completion.Count == 0 {
		t.Fatalf("the sampler read nothing from the aggregate tier: %+v", snap)
	}
}

// TestCountersAloneSeeCreditDrops: the fabric publishes a dropped credit
// update only when Bus.Wants(KindPacketDropped), so with nothing but the
// port counters attached — an aggregate reader, no stream subscriber —
// Wants must still say yes or the per-port Dropped count reads low. The
// same run with a stream subscriber of the kind beside the counters is
// the reference.
func TestCountersAloneSeeCreditDrops(t *testing.T) {
	corpus := differentialCorpus()
	s := corpus[len(corpus)-1]
	dropped := func(stream bool) (n uint64) {
		in, err := core.Build(s)
		if err != nil {
			t.Fatal(err)
		}
		ob := in.Observe(core.ObserveOpts{Counters: true})
		if stream {
			ob.Bus.Subscribe(obs.ConsumerFunc(func(obs.Event) {}), obs.KindPacketDropped)
		}
		res := in.Execute()
		if res.Faults == nil || res.Faults.DroppedCredits == 0 {
			t.Fatalf("%s dropped no credit update: %+v", s.Name, res.Faults)
		}
		ob.Registry.Each(func(_ obs.PortKey, c *obs.PortCounters) { n += c.Dropped })
		return n
	}
	if alone, streamed := dropped(false), dropped(true); alone != streamed || alone == 0 {
		t.Fatalf("switch ports counted %d drops with the counters alone, %d with a stream subscriber", alone, streamed)
	}
}

package obs_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// TestAttachSizesTableOnce: attaching the bus to a fabric sizes the port
// table to its transmitters, one row per link, and a fully observed run
// — sampler, checker, counters, every per-hop helper — never grows or
// moves it.
func TestAttachSizesTableOnce(t *testing.T) {
	s := core.Default(12)
	s.Name = "table-once"
	s.Warmup, s.Measure = 100*sim.Microsecond, 200*sim.Microsecond
	s.FracBPct, s.PPercent = 100, 60
	in, err := core.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	ob := in.Observe(core.ObserveOpts{Counters: true, Telemetry: telemetry.NewSampler(s.Name, 0)})
	ck := in.Check(core.CheckOpts{})
	links := len(ob.Bus.Links())
	rows := ob.Registry.Rows()
	if links == 0 || len(rows) != links {
		t.Fatalf("table sized to %d rows for %d links", len(rows), links)
	}
	in.Execute()
	if err := ck.Report().Err(); err != nil {
		t.Fatal(err)
	}
	after := ob.Registry.Rows()
	if len(after) != links || &after[0] != &rows[0] {
		t.Fatalf("the run grew or moved the table: %d rows, moved %v", len(after), &after[0] != &rows[0])
	}
	if marks, stalls, fwd, _ := ob.Registry.Totals(); marks == 0 || stalls == 0 || fwd == 0 {
		t.Fatalf("the run counted nothing: marks %d stalls %d fwd %d", marks, stalls, fwd)
	}
}

// raggedRing builds five switches in a cycle, each followed by its
// hosts: switch i uses 1+i%2 of its two host ports, so NodeIDs
// interleave hosts with switches and every other switch leaves a port
// unconnected between its hosts and its ring ports.
func raggedRing() (*topo.Topology, error) {
	b := topo.NewBuilder("ragged ring")
	sws := make([]topo.NodeID, 5)
	for i := range sws {
		sws[i] = b.AddSwitch(fmt.Sprint("sw", i), 4)
		for h := 0; h < 1+i%2; h++ {
			b.Connect(b.AddHost(fmt.Sprint("node", i, ".", h)), 0, sws[i], h)
		}
	}
	for i, sw := range sws {
		b.Connect(sw, 3, sws[(i+1)%len(sws)], 2)
	}
	return b.Build()
}

// TestEachOrderOnRaggedFabrics: on a ring, a chain and a fat tree with
// dead leaf–spine links, where switches' connected ports are ragged and
// link indices interleave hosts with switches, the table lists every
// switch port once in (switch, port) order, whatever order the
// link-addressed publishes came in, and never a host send port.
func TestEachOrderOnRaggedFabrics(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() (*topo.Topology, error)
	}{
		{"ragged ring", raggedRing},
		{"chain", func() (*topo.Topology, error) { return topo.LinearChain(4, 3) }},
		{"degraded fat tree", func() (*topo.Topology, error) {
			return topo.FatTreeDegraded(8, func(leaf, spine int) bool { return spine == 1 || (leaf+spine)%3 == 0 })
		}},
	} {
		tp, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		lft, err := topo.ComputeLFT(tp)
		if err != nil {
			t.Fatal(err)
		}
		net, err := fabric.New(sim.New(), tp, lft, fabric.DefaultConfig(), fabric.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		bus := obs.New()
		reg := bus.Registry()
		net.SetBus(bus)
		links := bus.Links()
		var want []obs.PortKey
		host := map[obs.PortKey]bool{}
		for i := len(links) - 1; i >= 0; i-- {
			if l := links[i]; l.Switch {
				want = append(want, l.Key)
				host[l.Key] = l.HostPort
				bus.SwitchQueued(sim.Time(len(links)-i), int32(i), 0, 64)
			}
		}
		slices.SortFunc(want, func(a, b obs.PortKey) int {
			if a.Switch != b.Switch {
				return a.Switch - b.Switch
			}
			return a.Port - b.Port
		})
		if got := reg.Ports(); !slices.Equal(got, want) || len(got) >= len(links) {
			t.Errorf("%s: ports %v, want the %d switch ports of %d links in (switch, port) order %v",
				c.name, got, len(want), len(links), want)
		}
		reg.Each(func(k obs.PortKey, pc *obs.PortCounters) {
			if pc != reg.Port(k.Switch, k.Port) || pc.HostPort != host[k] || pc.PeakQueuedBytes != 64 {
				t.Errorf("%s: port %v reads %+v, declared host-facing %v", c.name, k, pc, host[k])
			}
		})
		if len(reg.Rows()) != len(links) {
			t.Errorf("%s: %d rows for %d links", c.name, len(reg.Rows()), len(links))
		}
	}
}

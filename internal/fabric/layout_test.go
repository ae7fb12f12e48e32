package fabric

import (
	"testing"
	"unsafe"

	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestPortLayoutBudget pins the sizes the flat layout bought (DESIGN.md
// §9): an output port is two cache lines, and what a hop touches of the
// input port, the link and a VoQ header stays as small as it is. A field
// added to one of these has to earn its place against the working set
// of a 648-node fabric (1944 switch ports, 69 984 VoQ headers).
func TestPortLayoutBudget(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, most uintptr
		exact     bool
	}{
		{"swOutPort", unsafe.Sizeof(swOutPort{}), 128, false},
		{"swInPort", unsafe.Sizeof(swInPort{}), 40, false},
		{"linkOut", unsafe.Sizeof(linkOut{}), 96, false},
		{"linkState", unsafe.Sizeof(linkState{}), 2, false},
		{"ib.PacketQueue", unsafe.Sizeof(ib.PacketQueue{}), 16, true},
	} {
		if c.got > c.most || c.exact && c.got != c.most {
			t.Errorf("%s is %d bytes, budget %d", c.name, c.got, c.most)
		}
	}
}

// TestVoQSlabHoldsRealPortsOnly: every output port's VoQ ring has one
// stretch per port its switch has, lanes padded to a power of two, so
// the paper's 648-node fabric (54 switches of 36 ports) carves 1944 × 36
// headers per lane and no slot for a port the switch does not have.
func TestVoQSlabHoldsRealPortsOnly(t *testing.T) {
	tp, err := topo.FatTree(36)
	if err != nil {
		t.Fatal(err)
	}
	r, err := topo.ComputeLFT(tp)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ vls, want int }{{1, 69984}, {2, 139968}} {
		cfg := DefaultConfig()
		cfg.NumVLs = c.vls
		n, err := New(sim.New(), tp, r, cfg, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(n.voqs); got != c.want {
			t.Errorf("%d VLs: %d VoQ headers, want %d", c.vls, got, c.want)
		}
	}
}

// TestNewAllocatesPerNodeNotPerPort: everything a port counts per VL or
// per ring slot is a stretch of a network-wide slab sized by one
// counting pass, and a switch's ports are one allocation per direction,
// so building a fabric allocates a handful of objects per switch and one
// per host — fewer than it has ports, whatever the lane count.
func TestNewAllocatesPerNodeNotPerPort(t *testing.T) {
	for _, radix := range []int{12, 36} {
		tp, err := topo.FatTree(radix)
		if err != nil {
			t.Fatal(err)
		}
		r, err := topo.ComputeLFT(tp)
		if err != nil {
			t.Fatal(err)
		}
		ports := 0
		for i := range tp.Nodes {
			if tp.Nodes[i].Kind == topo.Switch {
				ports += len(tp.Nodes[i].Ports)
			}
		}
		var perVL [2]float64
		simr := sim.New()
		for i, vls := range []int{1, 8} {
			cfg := DefaultConfig()
			cfg.NumVLs = vls
			perVL[i] = testing.AllocsPerRun(3, func() {
				if _, err := New(simr, tp, r, cfg, Hooks{}); err != nil {
					t.Fatal(err)
				}
			})
		}
		// Five objects a switch (the node, two port-pointer tables, two port
		// arrays), one a host and the network's own dozen: fewer than there
		// are ports, where one allocation a port would be at least that
		// many, and the same at any lane count up to what the runtime
		// itself allocates around a collection.
		if perVL[0] >= float64(ports) {
			t.Errorf("radix %d: New allocates %.0f objects for %d switches, %d hosts and %d ports: must stay below one per port",
				radix, perVL[0], tp.NumSwitches(), tp.NumHosts, ports)
		}
		if perVL[1] > perVL[0]+16 {
			t.Errorf("radix %d: New allocates %.0f objects at 8 VLs, %.0f at 1: lanes must not cost allocations",
				radix, perVL[1], perVL[0])
		}
	}
}

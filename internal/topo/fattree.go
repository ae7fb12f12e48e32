package topo

import "fmt"

// FatTree constructs the folded-Clos "three-stage" fat-tree the paper
// simulates, parameterized by crossbar radix. A radix-r fat-tree has r
// leaf switches (r/2 host ports + r/2 uplinks each) and r/2 spine
// switches (one port per leaf), supporting r*r/2 end nodes with full
// bisection bandwidth. Radix 36 yields the Sun Datacenter InfiniBand
// Switch 648: 648 end nodes from 54 36-port crossbars.
//
// Leaf port convention: ports 0..r/2-1 attach hosts, port r/2+s attaches
// spine s. Spine port l attaches leaf l. Host h (LID h) hangs off leaf
// h/(r/2), port h mod (r/2).
func FatTree(radix int) (*Topology, error) {
	return fatTree(radix, fmt.Sprintf("fattree-%d (%d nodes)", radix, radix*radix/2), nil)
}

// fatTree builds FatTree(radix) under the given name, without the
// leaf–spine links skip reports dead (none when skip is nil).
func fatTree(radix int, name string, skip func(leaf, spine int) bool) (*Topology, error) {
	if radix < 2 || radix%2 != 0 {
		return nil, fmt.Errorf("topo: fat-tree radix must be even and >= 2, got %d", radix)
	}
	half := radix / 2
	b := NewBuilder(name)

	hosts := make([]NodeID, radix*half)
	for i, name := range indexedNames("node", len(hosts)) {
		hosts[i] = b.AddHost(name)
	}
	leaves := make([]NodeID, radix)
	for l, name := range indexedNames("leaf", radix) {
		leaves[l] = b.AddSwitch(name, radix)
	}
	spines := make([]NodeID, half)
	for s, name := range indexedNames("spine", half) {
		spines[s] = b.AddSwitch(name, radix)
	}

	for h, hn := range hosts {
		b.Connect(hn, 0, leaves[h/half], h%half)
	}
	alive := 0
	for l, ln := range leaves {
		for s, sn := range spines {
			if skip != nil && skip(l, s) {
				continue
			}
			alive++
			b.Connect(ln, half+s, sn, l)
		}
	}
	if alive == 0 {
		return nil, fmt.Errorf("topo: every leaf-spine link removed")
	}
	return b.Build()
}

// FatTreeShape reports the dimensions of a radix-r fat-tree without
// building it.
func FatTreeShape(radix int) (hosts, leaves, spines int) {
	return radix * radix / 2, radix, radix / 2
}

// SunDCS648Radix is the crossbar radix of the paper's topology.
const SunDCS648Radix = 36

// SingleSwitch builds one crossbar with n attached hosts, the smallest
// topology that exhibits endpoint congestion.
func SingleSwitch(n int) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("topo: single switch needs >= 2 hosts, got %d", n)
	}
	b := NewBuilder(fmt.Sprintf("xbar-%d", n))
	sw := b.AddSwitch("sw0", n)
	for i := 0; i < n; i++ {
		h := b.AddHost(fmt.Sprintf("node%d", i))
		b.Connect(h, 0, sw, i)
	}
	return b.Build()
}

// LinearChain builds k switches in a line with hostsPerSwitch hosts on
// each — the parking-lot topology from the authors' earlier hardware
// study, used by the fairness example.
func LinearChain(k, hostsPerSwitch int) (*Topology, error) {
	if k < 1 || hostsPerSwitch < 1 {
		return nil, fmt.Errorf("topo: chain needs k >= 1 switches and >= 1 host each")
	}
	b := NewBuilder(fmt.Sprintf("chain-%dx%d", k, hostsPerSwitch))
	// Switch port convention: ports 0..hostsPerSwitch-1 hosts,
	// port hostsPerSwitch to previous switch, hostsPerSwitch+1 to next.
	sws := make([]NodeID, k)
	for i := range sws {
		sws[i] = b.AddSwitch(fmt.Sprintf("sw%d", i), hostsPerSwitch+2)
	}
	for i := 0; i < k; i++ {
		for h := 0; h < hostsPerSwitch; h++ {
			hn := b.AddHost(fmt.Sprintf("node%d", i*hostsPerSwitch+h))
			b.Connect(hn, 0, sws[i], h)
		}
		if i+1 < k {
			b.Connect(sws[i], hostsPerSwitch+1, sws[i+1], hostsPerSwitch)
		}
	}
	return b.Build()
}

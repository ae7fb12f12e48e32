package topo

import (
	"fmt"
	"sort"
	"testing"
)

// refLFT is ComputeLFT as it was before routing per leaf: one
// breadth-first search over the whole node graph per destination host,
// and a sorted candidate list per (host, switch). It is the reference
// TestComputeLFTMatchesPerHostReference holds the per-leaf tables to.
func refLFT(t *Topology) (*Routing, error) {
	n := len(t.Nodes)
	r := &Routing{lft: make([][]int16, n)}
	for i := range t.Nodes {
		if t.Nodes[i].Kind == Switch {
			row := make([]int16, t.NumHosts)
			for j := range row {
				row[j] = -1
			}
			r.lft[i] = row
		}
	}

	dist := make([]int32, n)
	queue := make([]NodeID, 0, n)
	for dstLID := 0; dstLID < t.NumHosts; dstLID++ {
		dstNode := t.hostByLID[dstLID]
		for i := range dist {
			dist[i] = -1
		}
		dist[dstNode] = 0
		queue = queue[:0]
		queue = append(queue, dstNode)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, p := range t.Nodes[cur].Ports {
				if !p.Connected() || dist[p.Peer] != -1 {
					continue
				}
				dist[p.Peer] = dist[cur] + 1
				queue = append(queue, p.Peer)
			}
		}
		for i := range t.Nodes {
			sw := &t.Nodes[i]
			if sw.Kind != Switch {
				continue
			}
			if dist[sw.ID] < 0 {
				if !hasLinks(sw) {
					continue
				}
				return nil, fmt.Errorf("topo: switch %q cannot reach host LID %d", sw.Name, dstLID)
			}
			var cands []int
			for pi, p := range sw.Ports {
				if p.Connected() && dist[p.Peer] == dist[sw.ID]-1 {
					cands = append(cands, pi)
				}
			}
			if len(cands) == 0 {
				return nil, fmt.Errorf("topo: no forwarding port on %q towards LID %d", sw.Name, dstLID)
			}
			sort.Ints(cands)
			r.lft[sw.ID][dstLID] = int16(cands[dstLID%len(cands)])
		}
	}
	return r, nil
}

// routingCorpus is every topology family the package builds, at sizes
// from the smallest each accepts up to the paper's 648-node fat tree.
func routingCorpus(t *testing.T) []*Topology {
	t.Helper()
	var out []*Topology
	add := func(tp *Topology, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tp)
	}
	grid := func(g *Grid, err error) (*Topology, error) {
		if err != nil {
			return nil, err
		}
		return g.Topology, nil
	}
	for radix := 4; radix <= SunDCS648Radix; radix += 2 {
		add(FatTree(radix))
	}
	add(FatTreeDegraded(8, DeadSpines(1)))
	add(FatTreeDegraded(12, DeadSpines(0, 3)))
	add(FatTreeDegraded(18, func(leaf, spine int) bool { return (leaf+2*spine)%5 == 0 }))
	add(FatTreeDegraded(36, DeadSpines(17)))
	add(grid(Mesh2D(3, 4, 2)))
	add(grid(Torus2D(4, 4, 1)))
	add(grid(Torus2D(5, 3, 3)))
	add(SingleSwitch(2))
	add(SingleSwitch(16))
	add(LinearChain(1, 3))
	add(LinearChain(5, 2))
	return out
}

// TestComputeLFTMatchesPerHostReference: on every topology family the
// per-leaf tables equal the per-host reference entry for entry.
func TestComputeLFTMatchesPerHostReference(t *testing.T) {
	for _, tp := range routingCorpus(t) {
		got, err := ComputeLFT(tp)
		if err != nil {
			t.Fatalf("%s: %v", tp.Name, err)
		}
		want, err := refLFT(tp)
		if err != nil {
			t.Fatalf("%s: reference: %v", tp.Name, err)
		}
		for id, row := range want.lft {
			if fmt.Sprint(got.lft[id]) != fmt.Sprint(row) {
				t.Fatalf("%s: node %d routes %v, reference %v", tp.Name, id, got.lft[id], row)
			}
		}
	}
}

// TestComputeLFTErrorsMatchReference: both ways routing can fail — a
// switch that cannot reach a host, and a host whose port is unconnected
// (which Build refuses, so the test cuts the link afterwards) — fail
// with the reference's error, naming the same switch and LID.
func TestComputeLFTErrorsMatchReference(t *testing.T) {
	island := func() *Topology {
		b := NewBuilder("islands")
		h := []NodeID{b.AddHost("h0"), b.AddHost("h1"), b.AddHost("h2")}
		s0, s1 := b.AddSwitch("s0", 3), b.AddSwitch("s1", 2)
		b.AddSwitch("dead", 2)
		b.Connect(h[0], 0, s0, 0)
		b.Connect(h[2], 0, s0, 1)
		b.Connect(h[1], 0, s1, 0)
		tp, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	unplugged := func() *Topology {
		tp, err := FatTree(6)
		if err != nil {
			t.Fatal(err)
		}
		h := tp.Host(4)
		leaf := &tp.Nodes[h.Ports[0].Peer]
		leaf.Ports[h.Ports[0].PeerPort] = Port{Peer: NoNode}
		h.Ports[0] = Port{Peer: NoNode}
		return tp
	}
	for _, tp := range []*Topology{island(), unplugged()} {
		_, err := ComputeLFT(tp)
		_, want := refLFT(tp)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%s: error %v, reference %v", tp.Name, err, want)
		}
	}
}

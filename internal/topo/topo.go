// Package topo builds the network topologies used in the study and
// computes their linear forwarding tables (LFTs). The headline topology is
// the three-stage folded-Clos fat-tree of the Sun Datacenter InfiniBand
// Switch 648 (36 leaf and 18 spine 36-port crossbars, 648 end nodes); the
// package also provides a single crossbar and a linear switch chain for
// unit tests and the fairness example.
package topo

import (
	"fmt"
	"strconv"

	"repro/internal/ib"
	"repro/internal/slab"
)

// NodeID indexes a node (host or switch) within a Topology.
type NodeID int32

// NoNode marks an unconnected port.
const NoNode NodeID = -1

// NodeKind distinguishes end nodes from switches.
type NodeKind uint8

const (
	// Host is an end node with a single HCA port.
	Host NodeKind = iota
	// Switch is a crossbar forwarding node.
	Switch
)

func (k NodeKind) String() string {
	if k == Host {
		return "host"
	}
	return "switch"
}

// Port describes one side of a link.
type Port struct {
	Peer     NodeID // NoNode when unconnected
	PeerPort int
}

// Connected reports whether the port has a link attached.
func (p Port) Connected() bool { return p.Peer != NoNode }

// Node is a host or switch within a topology.
type Node struct {
	ID    NodeID
	Kind  NodeKind
	LID   ib.LID
	Name  string
	Ports []Port
}

// Topology is an immutable description of nodes and links. Host LIDs are
// assigned densely from zero in the order hosts were added; switches get
// LIDs after all hosts.
type Topology struct {
	Name     string
	Nodes    []Node
	NumHosts int

	// hostByLID maps a host LID to its NodeID.
	hostByLID []NodeID
}

// Host returns the node for a host LID.
func (t *Topology) Host(lid ib.LID) *Node {
	return &t.Nodes[t.hostByLID[lid]]
}

// NumSwitches returns the number of switch nodes.
func (t *Topology) NumSwitches() int { return len(t.Nodes) - t.NumHosts }

// Links returns every link once, as pairs of (node, port) endpoints with
// the lower NodeID (or lower port on ties) first.
func (t *Topology) Links() [][2][2]int {
	var out [][2][2]int
	for _, n := range t.Nodes {
		for pi, p := range n.Ports {
			if !p.Connected() {
				continue
			}
			if p.Peer > n.ID || (p.Peer == n.ID && p.PeerPort > pi) {
				out = append(out, [2][2]int{{int(n.ID), pi}, {int(p.Peer), p.PeerPort}})
			}
		}
	}
	return out
}

// Builder assembles a Topology incrementally. Every node's ports are
// carved from one slab of chunks, not allocated per node.
type Builder struct {
	name  string
	nodes []Node
	ports slab.Chunks[Port]
	hosts int
	err   error
}

// NewBuilder returns an empty builder for a topology with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// AddHost appends an end node with one port and returns its NodeID.
func (b *Builder) AddHost(name string) NodeID {
	id := NodeID(len(b.nodes))
	ps := b.ports.Make(1)
	ps[0].Peer = NoNode
	b.nodes = append(b.nodes, Node{ID: id, Kind: Host, Name: name, Ports: ps})
	b.hosts++
	return id
}

// AddSwitch appends a switch with the given port count and returns its
// NodeID.
func (b *Builder) AddSwitch(name string, ports int) NodeID {
	id := NodeID(len(b.nodes))
	ps := b.ports.Make(ports)
	for i := range ps {
		ps[i].Peer = NoNode
	}
	b.nodes = append(b.nodes, Node{ID: id, Kind: Switch, Name: name, Ports: ps})
	return id
}

// indexedNames returns prefix0 … prefix<n-1>, carved from one string.
func indexedNames(prefix string, n int) []string {
	buf := make([]byte, 0, n*(len(prefix)+len(strconv.Itoa(n))))
	ends := make([]int, n)
	for i := range ends {
		buf = strconv.AppendInt(append(buf, prefix...), int64(i), 10)
		ends[i] = len(buf)
	}
	all := string(buf)
	names := make([]string, n)
	start := 0
	for i, end := range ends {
		names[i], start = all[start:end], end
	}
	return names
}

// Connect links port ap of node a to port bp of node b (full duplex).
// Errors are deferred to Build.
func (b *Builder) Connect(a NodeID, ap int, bn NodeID, bp int) {
	if b.err != nil {
		return
	}
	check := func(n NodeID, p int) bool {
		if int(n) < 0 || int(n) >= len(b.nodes) {
			b.err = fmt.Errorf("topo: connect: node %d out of range", n)
			return false
		}
		if p < 0 || p >= len(b.nodes[n].Ports) {
			b.err = fmt.Errorf("topo: connect: node %d port %d out of range", n, p)
			return false
		}
		if b.nodes[n].Ports[p].Connected() {
			b.err = fmt.Errorf("topo: connect: node %d port %d already connected", n, p)
			return false
		}
		return true
	}
	if !check(a, ap) || !check(bn, bp) {
		return
	}
	if a == bn {
		b.err = fmt.Errorf("topo: connect: self-loop on node %d", a)
		return
	}
	b.nodes[a].Ports[ap] = Port{Peer: bn, PeerPort: bp}
	b.nodes[bn].Ports[bp] = Port{Peer: a, PeerPort: ap}
}

// Build validates the assembled topology and assigns LIDs. Every host
// port must be connected; switch ports may be left unused.
func (b *Builder) Build() (*Topology, error) {
	if b.err != nil {
		return nil, b.err
	}
	t := &Topology{Name: b.name, Nodes: b.nodes, NumHosts: b.hosts}
	t.hostByLID = make([]NodeID, 0, b.hosts)
	lid := ib.LID(0)
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.Kind == Host {
			if !n.Ports[0].Connected() {
				return nil, fmt.Errorf("topo: host %q has no link", n.Name)
			}
			n.LID = lid
			t.hostByLID = append(t.hostByLID, n.ID)
			lid++
		}
	}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.Kind == Switch {
			n.LID = lid
			lid++
		}
	}
	return t, nil
}

package topo

import (
	"fmt"

	"repro/internal/ib"
)

// Routing holds the linear forwarding tables: for every switch, the
// output port towards every destination host LID. Hosts always transmit
// on their single port and need no table.
type Routing struct {
	// lft[nodeID][dstLID] = output port; nil for hosts.
	lft [][]int16
}

// OutPort returns the output port switch n uses towards dst.
func (r *Routing) OutPort(n NodeID, dst ib.LID) int {
	return int(r.lft[n][dst])
}

// ComputeLFT builds destination-routed minimum-hop forwarding tables with
// a deterministic destination-modulo tie-break among equal-cost ports.
// On the fat-tree this degenerates to the classic balanced oblivious
// scheme (up-path spine = dst mod numSpines, unique down-path), matching
// the routing the paper's simulator uses; on arbitrary topologies it
// yields deterministic min-hop routing with load spreading.
//
// A host has one port and carries no transit traffic, so its distance to
// every other node is its leaf's (the node its port attaches to) plus
// one, and at every switch but that leaf the min-hop ports towards it
// are the ones towards the leaf; the leaf itself forwards on the host's
// link. So one breadth-first search per leaf, and one candidate list per
// (leaf, switch), serve all of the leaf's hosts. Leaves are routed in
// order of their lowest host LID, which makes the error reported the
// one for the lowest LID some switch cannot reach.
func ComputeLFT(t *Topology) (*Routing, error) {
	n := len(t.Nodes)
	r := &Routing{lft: make([][]int16, n)}
	cells := make([]int16, t.NumSwitches()*t.NumHosts)
	for i := range cells {
		cells[i] = -1
	}
	for i := range t.Nodes {
		if t.Nodes[i].Kind == Switch {
			r.lft[i], cells = cells[:t.NumHosts:t.NumHosts], cells[t.NumHosts:]
		}
	}

	// Hosts grouped by leaf, groups in order of their lowest LID; an
	// unconnected host's group is keyed NoNode. The groups are stretches
	// of one slab: a counting pass sizes them, a second fills them.
	var leaves []NodeID
	var sizes []int
	group := make(map[NodeID]int)
	groupOf := make([]int, t.NumHosts)
	for lid := range groupOf {
		leaf := t.Nodes[t.hostByLID[lid]].Ports[0].Peer
		g, ok := group[leaf]
		if !ok {
			g = len(leaves)
			group[leaf] = g
			leaves = append(leaves, leaf)
			sizes = append(sizes, 0)
		}
		groupOf[lid] = g
		sizes[g]++
	}
	hosts := make([][]int, len(leaves))
	members := make([]int, t.NumHosts)
	for g, size := range sizes {
		hosts[g], members = members[:0:size], members[size:]
	}
	for lid, g := range groupOf {
		hosts[g] = append(hosts[g], lid)
	}

	dist := make([]int32, n)
	queue := make([]NodeID, 0, n)
	var cands []int
	for g, leaf := range leaves {
		for i := range dist {
			dist[i] = -1
		}
		queue = queue[:0]
		if leaf != NoNode {
			dist[leaf] = 0
			queue = append(queue, leaf)
		}
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
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
			switch {
			case sw.Kind != Switch:
			case sw.ID == leaf:
				for _, dst := range hosts[g] {
					r.lft[sw.ID][dst] = int16(t.Nodes[t.hostByLID[dst]].Ports[0].PeerPort)
				}
			case dist[sw.ID] < 0:
				if hasLinks(sw) {
					return nil, fmt.Errorf("topo: switch %q cannot reach host LID %d", sw.Name, hosts[g][0])
				}
				// A fully failed switch carries no traffic.
			default:
				cands = cands[:0]
				for pi, p := range sw.Ports {
					if p.Connected() && dist[p.Peer] == dist[sw.ID]-1 {
						cands = append(cands, pi)
					}
				}
				for _, dst := range hosts[g] {
					r.lft[sw.ID][dst] = int16(cands[dst%len(cands)])
				}
			}
		}
	}
	return r, nil
}

// hasLinks reports whether any port of the node is connected.
func hasLinks(n *Node) bool {
	for _, p := range n.Ports {
		if p.Connected() {
			return true
		}
	}
	return false
}

// Trace follows the forwarding tables from src to dst and returns the
// node sequence visited, including both hosts. It fails on forwarding
// loops or missing table entries, so tests can assert route sanity.
func Trace(t *Topology, r *Routing, src, dst ib.LID) ([]NodeID, error) {
	if src == dst {
		return []NodeID{t.hostByLID[src]}, nil
	}
	cur := t.hostByLID[src]
	path := []NodeID{cur}
	// First hop: the host's single port.
	cur = t.Nodes[cur].Ports[0].Peer
	for hops := 0; ; hops++ {
		if hops > len(t.Nodes) {
			return nil, fmt.Errorf("topo: forwarding loop from %d to %d: %v", src, dst, path)
		}
		path = append(path, cur)
		node := &t.Nodes[cur]
		if node.Kind == Host {
			if node.LID != dst {
				return nil, fmt.Errorf("topo: route from %d to %d arrived at host %d", src, dst, node.LID)
			}
			return path, nil
		}
		out := r.OutPort(cur, dst)
		if out < 0 || out >= len(node.Ports) || !node.Ports[out].Connected() {
			return nil, fmt.Errorf("topo: switch %q has no valid port towards %d", node.Name, dst)
		}
		cur = node.Ports[out].Peer
	}
}

package fabric

import (
	"fmt"
	"math"

	"repro/internal/ib"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/slab"
	"repro/internal/topo"
)

// Network instantiates the fabric for a topology: one HCA per host, one
// SwitchNode per switch, and the credit-flow-controlled links between
// them, all driven by a shared simulator.
type Network struct {
	simr    *sim.Simulator
	topo    *topo.Topology
	routing *topo.Routing
	cfg     Config
	hooks   Hooks
	// bus is the flight-recorder event bus; nil (the default) disables
	// observability at zero cost on the forward path.
	bus *obs.Bus

	hcas     []*HCA        // indexed by host LID
	switches []*SwitchNode // dense switch index
	swByNode []*SwitchNode // indexed by NodeID, nil for hosts

	// pool recycles every packet the network carries: generators and
	// the CC manager acquire through it, host sinks release into it
	// after the delivery consumers return (see internal/ib/pool.go for
	// the ownership rules).
	pool *ib.PacketPool

	// Recycled per-packet event actions (see actions.go), carved from
	// the chunks when their freelist is empty. arrMade counts the arrival
	// actions ever made: the ones not in arrPool are in the event list,
	// one per packet on a wire (see Census).
	arrPool   []*arrivalAct
	arrMade   int
	arrChunks slab.Chunks[arrivalAct]
	crdPool   []*creditAct
	crdChunks slab.Chunks[creditAct]

	// Everything a port counts per VL or per ring slot lives in these
	// slabs, not in the port: each is allocated once, at the size a
	// counting pass over the topology finds, and every port owns the
	// stretch its stored base names (bases are stored because port and
	// lane counts are ragged across topologies). links and credits are
	// per transmitter, both found from the link's index (see
	// Network.credit), free per receiver, qbytes, occ and voqs per switch
	// output port.
	links   []linkState
	credits []int
	free    []int
	qbytes  []int
	occ     []uint64
	voqs    []ib.PacketQueue

	// parked holds the credit updates that were deferred instead of
	// scheduled (see linkOut).
	parked parkedRing
	// parkedPerLink is CheckLinkArmed's count of parked updates per
	// link, kept so a checker sweep allocates nothing.
	parkedPerLink []int

	// aud is the fault path's drop ledger (see audit.go).
	aud AuditCounters

	// dropper, when non-nil, is the fault layer's wire-loss policy
	// (see fault.go); nil loses nothing.
	dropper Dropper
}

// New wires up the fabric. Hooks may be zero; sources are attached per
// host afterwards via HCA.SetSource, then Start launches injection.
func New(s *sim.Simulator, t *topo.Topology, r *topo.Routing, cfg Config, hooks Hooks) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{simr: s, topo: t, routing: r, cfg: cfg, hooks: hooks, pool: ib.NewPacketPool()}
	n.hcas = make([]*HCA, t.NumHosts)
	n.swByNode = make([]*SwitchNode, len(t.Nodes))

	// The counting pass: what the slabs must hold once every node is
	// built (growing them by append instead costs more than all the
	// rest of New at paper scale).
	var want slabCursor
	nsw := 0
	for i := range t.Nodes {
		node := &t.Nodes[i]
		if node.Kind == topo.Host {
			want.links++
			want.free += cfg.NumVLs
			continue
		}
		nsw++
		_, ring, words := voqRing(len(node.Ports), cfg.NumVLs)
		for _, port := range node.Ports {
			if port.Connected() {
				want.links++
				want.free += cfg.NumVLs
				want.qbytes += cfg.NumVLs
				want.occ += words
				want.voqs += ring
			}
		}
	}
	if want.voqs > math.MaxInt32 {
		return nil, fmt.Errorf("fabric: %d VoQ slots exceed the slab index range", want.voqs)
	}
	n.links = make([]linkState, want.links)
	n.credits = make([]int, want.links*cfg.NumVLs)
	n.free = make([]int, want.free)
	n.qbytes = make([]int, want.qbytes)
	n.occ = make([]uint64, want.occ)
	n.voqs = make([]ib.PacketQueue, want.voqs)
	n.switches = make([]*SwitchNode, 0, nsw)
	hcas := make([]HCA, t.NumHosts)

	var cur slabCursor
	for i := range t.Nodes {
		node := &t.Nodes[i]
		switch node.Kind {
		case topo.Host:
			n.hcas[node.LID] = initHCA(&hcas[node.LID], n, node, &cur)
		case topo.Switch:
			sw := newSwitchNode(n, node, len(n.switches), &cur)
			n.switches = append(n.switches, sw)
			n.swByNode[node.ID] = sw
		}
	}
	if cur != want {
		return nil, fmt.Errorf("fabric: slabs sized for %+v but carved to %+v", want, cur)
	}

	// Wire every directed link endpoint: the transmit side gets its
	// downstream packet taker and initial credits; the receive side
	// learns where to return credits.
	for i := range t.Nodes {
		node := &t.Nodes[i]
		for pi, port := range node.Ports {
			if !port.Connected() {
				continue
			}
			peer := &t.Nodes[port.Peer]
			tx, rxCredits := n.txSide(node, pi)
			taker, dstIsHost := n.rxSide(peer, port.PeerPort)
			tx.dst = taker
			tx.hostFacing = dstIsHost
			tx.initCredits()
			// The peer's receive side returns credits to tx.
			n.setUpstream(peer, port.PeerPort, rxCredits, tx.index)
		}
	}
	return n, nil
}

// slabCursor counts, per slab, the entries handed out so far; the
// counting pass in New runs one to the end to size the slabs.
type slabCursor struct{ links, free, qbytes, occ, voqs int }

// txSide returns the linkOut of (node, port) and the creditTaker the
// peer's receiver must send credits to.
func (n *Network) txSide(node *topo.Node, port int) (*linkOut, creditTaker) {
	if node.Kind == topo.Host {
		h := n.hcas[node.LID]
		h.out.node = int(node.LID)
		return &h.out, h
	}
	op := n.swByNode[node.ID].out[port]
	op.linkOut.atSwitch, op.linkOut.node, op.linkOut.port = true, op.sw.index, port
	return &op.linkOut, op
}

// rxSide returns the packet taker at (node, port).
func (n *Network) rxSide(node *topo.Node, port int) (packetTaker, bool) {
	if node.Kind == topo.Host {
		return n.hcas[node.LID], true
	}
	return n.swByNode[node.ID].in[port], false
}

// setUpstream records ct, the transmitter of link, as the credit
// destination of (node, port)'s receive side.
func (n *Network) setUpstream(node *topo.Node, port int, ct creditTaker, link int32) {
	if node.Kind == topo.Host {
		h := n.hcas[node.LID]
		h.up, h.upLink = ct, link
		return
	}
	ip := n.swByNode[node.ID].in[port]
	ip.up, ip.upLink = ct, link
}

// SetHooks installs policy hooks after construction; it must be called
// before Start. It lets the congestion-control manager be built against
// the network and then attached.
func (n *Network) SetHooks(h Hooks) { n.hooks = h }

// SetBus attaches the flight-recorder event bus; it must be called
// before Start. A nil bus (the default) disables event publication.
// The bus learns every transmitter's link index (obs.Bus.SetLinks): the
// switch ports' per-hop publishes name their port by it.
func (n *Network) SetBus(b *obs.Bus) {
	n.bus = b
	if b == nil {
		return
	}
	links := make([]obs.Link, len(n.links))
	for _, sw := range n.switches {
		for _, op := range sw.out {
			if op != nil {
				links[op.index] = obs.Link{Key: obs.PortKey{Switch: sw.index, Port: op.port}, HostPort: op.hostFacing, Switch: true}
			}
		}
	}
	b.SetLinks(links)
}

// Bus returns the attached event bus (nil when observability is off).
func (n *Network) Bus() *obs.Bus { return n.bus }

// PacketPool returns the network's packet freelist. Sources attached
// via HCA.SetSource should acquire their packets from it so the
// steady-state data path allocates nothing.
func (n *Network) PacketPool() *ib.PacketPool { return n.pool }

// HCA returns the host with the given LID.
func (n *Network) HCA(lid ib.LID) *HCA { return n.hcas[lid] }

// NumHosts returns the host count.
func (n *Network) NumHosts() int { return len(n.hcas) }

// Switches returns the switch models in dense-index order.
func (n *Network) Switches() []*SwitchNode { return n.switches }

// Sim returns the driving simulator.
func (n *Network) Sim() *sim.Simulator { return n.simr }

// Config returns the fabric configuration.
func (n *Network) Config() Config { return n.cfg }

// Topology returns the underlying topology.
func (n *Network) Topology() *topo.Topology { return n.topo }

// Start kicks every HCA send path at the current simulation time.
func (n *Network) Start() {
	for _, h := range n.hcas {
		h.kickSend()
	}
}

// CheckQuiescent verifies, after a drain, that all buffers are empty and
// all credits returned — the global conservation invariant. Tests call
// it after running the event loop to completion.
//
// The event list running dry no longer means the clock has reached
// every completion: Run() stops at the last event that was actually
// scheduled, which may leave a serializer busy behind an unarmed key and
// credit updates parked with keys ahead of the clock. Nothing is left to
// act on either, so both count as settled here: a transmitter is
// quiescent unless its serializer-done callback is still pending, and
// parked credits count as returned.
func (n *Network) CheckQuiescent() error {
	settled := func(l *linkOut, want int) error {
		if l.armed {
			return fmt.Errorf("fabric: %s not quiescent", l.name())
		}
		for v, c := range l.credits() {
			if c += n.parkedBytes(l, v); c != want {
				return fmt.Errorf("fabric: %s vl %d credits %d of %d", l.name(), v, c, want)
			}
		}
		return nil
	}
	for _, h := range n.hcas {
		if !h.obuf.Empty() || !h.rxQ.Empty() || h.dmaBusy || h.sinkBusy {
			return fmt.Errorf("fabric: host %d not quiescent", h.lid)
		}
		for v, free := range h.rxFree() {
			if free != n.cfg.HostIbufBytes {
				return fmt.Errorf("fabric: host %d rx vl %d: %d free of %d", h.lid, v, free, n.cfg.HostIbufBytes)
			}
		}
		if err := settled(&h.out, h.out.capBytes()); err != nil {
			return err
		}
	}
	for _, sw := range n.switches {
		for pi, op := range sw.out {
			if op == nil {
				continue
			}
			if op.pending != 0 {
				return fmt.Errorf("fabric: switch %d port %d not quiescent", sw.index, pi)
			}
			if err := settled(&op.linkOut, op.capBytes()); err != nil {
				return err
			}
		}
		for pi, ip := range sw.in {
			if ip == nil {
				continue
			}
			for v, free := range ip.free() {
				if free != n.cfg.SwitchIbufBytes {
					return fmt.Errorf("fabric: switch %d in-port %d vl %d free %d", sw.index, pi, v, free)
				}
			}
		}
	}
	if err := n.CheckVoQOccupancy(); err != nil {
		return err
	}
	return n.CheckLinkArmed()
}

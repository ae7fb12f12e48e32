package topo

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/ib"
)

// Analysis summarizes a routed topology: path-length distribution and
// static link load under all-to-all traffic. The experiment tooling uses
// it to sanity-check new topologies and to locate structural bottlenecks
// before simulating.
type Analysis struct {
	// Hosts and Switches count the nodes.
	Hosts, Switches int
	// Links counts undirected links.
	Links int
	// PathLenHist[h] counts host pairs whose route crosses h switches
	// (self-pairs excluded).
	PathLenHist map[int]int
	// LinkLoad maps each directed link (by its transmit endpoint) to
	// the number of host pairs whose route uses it.
	LinkLoad map[DirectedLink]int
	// MaxLoad and MinLoad are the extreme directed inter-switch link
	// loads (0 when there are no inter-switch links).
	MaxLoad, MinLoad int
}

// DirectedLink identifies one direction of a link by its transmitting
// endpoint.
type DirectedLink struct {
	Node NodeID
	Port int
}

// Analyze traces every ordered host pair through the forwarding tables.
// It is O(H² · pathlen), fine for the topology sizes the tests and
// tools inspect.
func Analyze(t *Topology, r *Routing) (*Analysis, error) {
	a := &Analysis{
		Hosts:       t.NumHosts,
		Switches:    t.NumSwitches(),
		Links:       len(t.Links()),
		PathLenHist: make(map[int]int),
		LinkLoad:    make(map[DirectedLink]int),
	}
	for s := 0; s < t.NumHosts; s++ {
		for d := 0; d < t.NumHosts; d++ {
			if s == d {
				continue
			}
			path, err := Trace(t, r, ib.LID(s), ib.LID(d))
			if err != nil {
				return nil, err
			}
			swHops := 0
			// Walk the path again to attribute directed link loads.
			for i := 0; i+1 < len(path); i++ {
				cur := &t.Nodes[path[i]]
				if cur.Kind == Switch {
					swHops++
				}
				var port int
				if cur.Kind == Host {
					port = 0
				} else {
					port = r.OutPort(cur.ID, ib.LID(d))
				}
				a.LinkLoad[DirectedLink{Node: cur.ID, Port: port}]++
			}
			a.PathLenHist[swHops]++
		}
	}
	first := true
	for l, load := range a.LinkLoad {
		if t.Nodes[l.Node].Kind != Switch {
			continue
		}
		if t.Nodes[t.Nodes[l.Node].Ports[l.Port].Peer].Kind != Switch {
			continue
		}
		if first || load > a.MaxLoad {
			a.MaxLoad = load
		}
		if first || load < a.MinLoad {
			a.MinLoad = load
		}
		first = false
	}
	return a, nil
}

// AvgPathLen returns the mean number of switch hops per route.
func (a *Analysis) AvgPathLen() float64 {
	var sum, n int
	for h, c := range a.PathLenHist {
		sum += h * c
		n += c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Balance returns MinLoad/MaxLoad over inter-switch links: 1.0 is a
// perfectly balanced fabric, smaller values indicate hot links.
func (a *Analysis) Balance() float64 {
	if a.MaxLoad == 0 {
		return 1
	}
	return float64(a.MinLoad) / float64(a.MaxLoad)
}

// Print writes a human-readable report.
func (a *Analysis) Print(w io.Writer) {
	fmt.Fprintf(w, "hosts %d, switches %d, links %d\n", a.Hosts, a.Switches, a.Links)
	fmt.Fprintf(w, "path length (switch hops) over %d routes, avg %.2f:\n",
		a.Hosts*(a.Hosts-1), a.AvgPathLen())
	var lens []int
	for h := range a.PathLenHist {
		lens = append(lens, h)
	}
	sort.Ints(lens)
	for _, h := range lens {
		fmt.Fprintf(w, "  %2d hops: %6d routes\n", h, a.PathLenHist[h])
	}
	fmt.Fprintf(w, "inter-switch link load: min %d, max %d, balance %.3f\n",
		a.MinLoad, a.MaxLoad, a.Balance())
}

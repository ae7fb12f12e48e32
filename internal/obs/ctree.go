package obs

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/ib"
)

// FlowClass is the congestion-tree role of a flow.
type FlowClass uint8

const (
	// FlowUnknown means the flow sent no data the analyzer saw.
	FlowUnknown FlowClass = iota
	// FlowContributor flows feed a congestion tree: their destination
	// is a reconstructed tree root destination (the hotspot).
	FlowContributor
	// FlowVictim flows carry data but feed no tree; any throughput they
	// lose is head-of-line blocking damage, the paper's victim class.
	FlowVictim
)

func (c FlowClass) String() string {
	switch c {
	case FlowContributor:
		return "contributor"
	case FlowVictim:
		return "victim"
	default:
		return "unknown"
	}
}

// TreePort is one switch port of a reconstructed congestion tree.
type TreePort struct {
	Key PortKey
	// HostPort reports whether the port faces an HCA.
	HostPort bool
	// Marks counts FECN marks the port applied to this tree's flows.
	Marks uint64
	// PeakQueuedBytes is the deepest queue observed at the port.
	PeakQueuedBytes int
}

// Tree is one reconstructed congestion tree: the set of marking ports
// whose dominant marked destination is Dst.
type Tree struct {
	// Dst is the tree's destination — the hotspot the contributors
	// oversubscribe.
	Dst ib.LID
	// Root is the marking port closest to the destination: the
	// host-facing marking port when one exists (where the paper's
	// trees root), otherwise the port with the most marks.
	Root TreePort
	// Branches are the remaining marking ports of the tree, where
	// congestion has spread toward the sources.
	Branches []TreePort
	// Marks is the total FECN marks across root and branches.
	Marks uint64
	// Contributors lists the flows marked into or throttled toward
	// this destination.
	Contributors []ib.FlowKey
	// BECNs counts BECNs consumed by the tree's contributors.
	BECNs uint64
	// MaxCCTI is the deepest throttle any contributor reached.
	MaxCCTI uint16
}

// TreeReport is the analyzer's result over a whole run.
type TreeReport struct {
	// Trees, sorted by total marks descending.
	Trees []Tree
	// Minor lists marked destinations that fell below the significance
	// cut: transiently marked, not sustained congestion trees. Flows to
	// them classify as victims.
	Minor []Tree
	// Contributors and Victims count classified flows.
	Contributors, Victims int
	// ContributorSrcs and VictimSrcs count source nodes with at least
	// one flow of the class (a windy B node appears in both).
	ContributorSrcs, VictimSrcs int
	// Flows is the per-flow classification.
	Flows map[ib.FlowKey]FlowClass
	// Faults summarizes fault-layer activity seen on the bus, separating
	// throughput loss the fault plan caused from congestion damage; all
	// zero when no fault plan was active.
	Faults FaultSummary
}

// FaultSummary is the fault-attribution section of a TreeReport.
type FaultSummary struct {
	// DroppedPackets counts packets the fault layer discarded;
	// DroppedCredits counts discarded credit updates.
	DroppedPackets, DroppedCredits uint64
	// DroppedToTrees is the subset of DroppedPackets destined for a
	// reconstructed tree destination — loss inside the congestion trees
	// rather than on victim paths.
	DroppedToTrees uint64
	// LinkDowns and LinkUps count transmitter outage transitions.
	LinkDowns, LinkUps int
}

// Any reports whether any fault activity was observed.
func (f FaultSummary) Any() bool {
	return f.DroppedPackets > 0 || f.DroppedCredits > 0 || f.LinkDowns > 0 || f.LinkUps > 0
}

// HotspotSet returns the tree destinations as a membership map.
func (r *TreeReport) HotspotSet() map[ib.LID]bool {
	out := make(map[ib.LID]bool, len(r.Trees))
	for _, t := range r.Trees {
		out[t.Dst] = true
	}
	return out
}

// Class returns the classification of flow f.
func (r *TreeReport) Class(f ib.FlowKey) FlowClass { return r.Flows[f] }

// WriteTo renders the report as the table ibccsim -ctree prints.
func (r *TreeReport) WriteTo(w io.Writer) (int64, error) {
	var n int64
	pf := func(format string, args ...any) error {
		k, err := fmt.Fprintf(w, format, args...)
		n += int64(k)
		return err
	}
	if err := pf("congestion trees: %d, flows: %d contributors / %d victims (sources: %d / %d)\n",
		len(r.Trees), r.Contributors, r.Victims, r.ContributorSrcs, r.VictimSrcs); err != nil {
		return n, err
	}
	for i, t := range r.Trees {
		root := fmt.Sprintf("%v", t.Root.Key)
		if t.Root.HostPort {
			root += " (host-facing)"
		}
		if err := pf("  tree %d -> dst %d: root %s, %d branch ports, %d marks, %d becns, %d contributors, maxCCTI %d\n",
			i, t.Dst, root, len(t.Branches), t.Marks, t.BECNs, len(t.Contributors), t.MaxCCTI); err != nil {
			return n, err
		}
		for _, b := range t.Branches {
			if err := pf("    branch %v: %d marks, peak queue %d B\n", b.Key, b.Marks, b.PeakQueuedBytes); err != nil {
				return n, err
			}
		}
	}
	if len(r.Minor) > 0 {
		var marks uint64
		for _, t := range r.Minor {
			marks += t.Marks
		}
		if err := pf("  (%d transiently marked destinations below the significance cut, %d marks total)\n",
			len(r.Minor), marks); err != nil {
			return n, err
		}
	}
	if r.Faults.Any() {
		if err := pf("  faults: %d packets dropped (%d into trees), %d credit updates dropped, %d link downs / %d ups\n",
			r.Faults.DroppedPackets, r.Faults.DroppedToTrees, r.Faults.DroppedCredits,
			r.Faults.LinkDowns, r.Faults.LinkUps); err != nil {
			return n, err
		}
	}
	return n, nil
}

// portAgg accumulates per-port evidence during the run.
type portAgg struct {
	hostPort bool
	marks    uint64
	markDst  map[ib.LID]uint64
	peak     int
}

// flowAgg accumulates per-flow evidence during the run.
type flowAgg struct {
	dataPkts uint64
	marked   uint64
	becns    uint64
	maxCCTI  uint16
}

// TreeAnalyzer is a bus consumer reconstructing congestion trees from
// the FECN topology: which ports marked packets of which destinations,
// which flows were marked or throttled, and which flows merely carried
// data. Call Report after the run.
type TreeAnalyzer struct {
	ports map[PortKey]*portAgg
	flows map[ib.FlowKey]*flowAgg
	// Fault evidence: aggregate counters plus dropped data packets per
	// destination, resolved against the tree set at Report time.
	faults     FaultSummary
	droppedDst map[ib.LID]uint64
}

// NewTreeAnalyzer returns an empty analyzer.
func NewTreeAnalyzer() *TreeAnalyzer {
	return &TreeAnalyzer{
		ports:      make(map[PortKey]*portAgg),
		flows:      make(map[ib.FlowKey]*flowAgg),
		droppedDst: make(map[ib.LID]uint64),
	}
}

// Attach subscribes the analyzer to the kinds it consumes.
func (a *TreeAnalyzer) Attach(b *Bus) {
	b.Subscribe(a, KindPacketSent, KindFECNMarked, KindBECNReturned,
		KindCCTIChanged, KindQueueSampled, KindPacketDropped, KindLinkDown, KindLinkUp)
}

func (a *TreeAnalyzer) flow(f ib.FlowKey) *flowAgg {
	fl := a.flows[f]
	if fl == nil {
		fl = &flowAgg{}
		a.flows[f] = fl
	}
	return fl
}

// Consume implements Consumer.
func (a *TreeAnalyzer) Consume(e Event) {
	switch e.Kind {
	case KindPacketSent:
		// Flow inventory comes from HCA injections only; switch
		// forwards would multiply-count each packet per hop.
		if !e.Switch && e.Type == ib.DataPacket {
			a.flow(e.Flow()).dataPkts++
		}
	case KindFECNMarked:
		k := PortKey{Switch: e.Node, Port: e.Port}
		p := a.ports[k]
		if p == nil {
			p = &portAgg{markDst: make(map[ib.LID]uint64)}
			a.ports[k] = p
		}
		p.marks++
		p.markDst[e.Dst]++
		if e.HostPort {
			p.hostPort = true
		}
		if e.QueuedBytes > p.peak {
			p.peak = e.QueuedBytes
		}
		a.flow(e.Flow()).marked++
	case KindBECNReturned:
		a.flow(e.Flow()).becns++
	case KindCCTIChanged:
		fl := a.flow(e.Flow())
		if e.NewCCTI > fl.maxCCTI {
			fl.maxCCTI = e.NewCCTI
		}
	case KindQueueSampled:
		if p := a.ports[PortKey{Switch: e.Node, Port: e.Port}]; p != nil && e.QueuedBytes > p.peak {
			p.peak = e.QueuedBytes
		}
	case KindPacketDropped:
		if e.PktID == 0 {
			a.faults.DroppedCredits++
			return
		}
		a.faults.DroppedPackets++
		if e.Type == ib.DataPacket {
			a.droppedDst[e.Dst]++
		}
	case KindLinkDown:
		a.faults.LinkDowns++
	case KindLinkUp:
		a.faults.LinkUps++
	}
}

// Report reconstructs the trees and classifies every observed flow.
//
// Reconstruction: each marking port is assigned to the destination that
// dominates its marks; the ports of one destination form that
// destination's tree. The root is the host-facing marking port (the
// port feeding the hotspot HCA — where the paper's trees grow from),
// falling back to the most-marking port; the rest are branches, sorted
// by marks. A flow is a contributor when its destination is a tree
// destination, and a victim otherwise — exactly the paper's taxonomy,
// recovered here purely from the FECN record rather than from the
// scenario's ground-truth role assignment.
//
// Under heavy uniform load, destinations that are not oversubscribed
// still pick up occasional marks when bursts momentarily cross the
// marking threshold. A sustained tree keeps marking for the whole run,
// so its count sits well above that noise: the candidates are cut at
// the largest consecutive gap of their sorted mark counts, provided the
// gap is wide (>= 1.5x) and everything below it is under a third of the
// strongest tree. Cut candidates are reported as Minor.
func (a *TreeAnalyzer) Report() *TreeReport {
	// Group marking ports by dominant destination.
	byDst := make(map[ib.LID][]PortKey)
	for k, p := range a.ports {
		if p.marks == 0 {
			continue
		}
		var dst ib.LID
		var best uint64
		for d, c := range p.markDst {
			if c > best || (c == best && d < dst) {
				dst, best = d, c
			}
		}
		byDst[dst] = append(byDst[dst], k)
	}

	rep := &TreeReport{Flows: make(map[ib.FlowKey]FlowClass, len(a.flows))}
	for dst, keys := range byDst {
		t := Tree{Dst: dst}
		ports := make([]TreePort, 0, len(keys))
		for _, k := range keys {
			p := a.ports[k]
			ports = append(ports, TreePort{Key: k, HostPort: p.hostPort, Marks: p.markDst[dst], PeakQueuedBytes: p.peak})
			t.Marks += p.markDst[dst]
		}
		// Root: host-facing port with the most marks, else most marks
		// overall; deterministic tie-break on the key.
		sort.Slice(ports, func(i, j int) bool {
			pi, pj := ports[i], ports[j]
			if pi.HostPort != pj.HostPort {
				return pi.HostPort
			}
			if pi.Marks != pj.Marks {
				return pi.Marks > pj.Marks
			}
			return lessPortKey(pi.Key, pj.Key)
		})
		t.Root = ports[0]
		t.Branches = ports[1:]
		sort.Slice(t.Branches, func(i, j int) bool {
			if t.Branches[i].Marks != t.Branches[j].Marks {
				return t.Branches[i].Marks > t.Branches[j].Marks
			}
			return lessPortKey(t.Branches[i].Key, t.Branches[j].Key)
		})
		rep.Trees = append(rep.Trees, t)
	}
	sort.Slice(rep.Trees, func(i, j int) bool {
		if rep.Trees[i].Marks != rep.Trees[j].Marks {
			return rep.Trees[i].Marks > rep.Trees[j].Marks
		}
		return rep.Trees[i].Dst < rep.Trees[j].Dst
	})
	if cut := significanceCut(rep.Trees); cut > 0 {
		rep.Minor = rep.Trees[cut:]
		rep.Trees = rep.Trees[:cut]
	}

	// Classify flows against the reconstructed hotspot set.
	hot := rep.HotspotSet()
	treeIdx := make(map[ib.LID]int, len(rep.Trees))
	for i := range rep.Trees {
		treeIdx[rep.Trees[i].Dst] = i
	}
	contribSrc := make(map[ib.LID]bool)
	victimSrc := make(map[ib.LID]bool)
	for f, fl := range a.flows {
		if fl.dataPkts == 0 && fl.marked == 0 && fl.becns == 0 {
			continue
		}
		if hot[f.Dst] {
			rep.Flows[f] = FlowContributor
			rep.Contributors++
			contribSrc[f.Src] = true
			t := &rep.Trees[treeIdx[f.Dst]]
			t.Contributors = append(t.Contributors, f)
			t.BECNs += fl.becns
			if fl.maxCCTI > t.MaxCCTI {
				t.MaxCCTI = fl.maxCCTI
			}
		} else {
			rep.Flows[f] = FlowVictim
			rep.Victims++
			victimSrc[f.Src] = true
		}
	}
	for i := range rep.Trees {
		sort.Slice(rep.Trees[i].Contributors, func(a, b int) bool {
			c := rep.Trees[i].Contributors
			if c[a].Src != c[b].Src {
				return c[a].Src < c[b].Src
			}
			return c[a].Dst < c[b].Dst
		})
	}
	rep.ContributorSrcs = len(contribSrc)
	rep.VictimSrcs = len(victimSrc)
	rep.Faults = a.faults
	for dst, n := range a.droppedDst {
		if hot[dst] {
			rep.Faults.DroppedToTrees += n
		}
	}
	return rep
}

// significanceCut returns the index separating sustained trees from
// transient marking noise in a marks-descending candidate list, or 0
// when no cut is warranted (every candidate is kept).
func significanceCut(trees []Tree) int {
	if len(trees) < 2 {
		return 0
	}
	best, bestRatio := 0, 0.0
	for i := 1; i < len(trees); i++ {
		r := float64(trees[i-1].Marks) / float64(trees[i].Marks)
		if r > bestRatio {
			best, bestRatio = i, r
		}
	}
	if bestRatio < 1.5 || trees[best].Marks*3 > trees[0].Marks {
		return 0
	}
	return best
}

func lessPortKey(a, b PortKey) bool {
	if a.Switch != b.Switch {
		return a.Switch < b.Switch
	}
	return a.Port < b.Port
}

var _ Consumer = (*TreeAnalyzer)(nil)

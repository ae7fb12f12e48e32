package topo

import "fmt"

// FatTreeDegraded builds the folded-Clos fat-tree of FatTree(radix) with
// some leaf–spine links removed, modeling link or spine failures — the
// "re-routing around faulty regions" congestion source of the paper's
// introduction. skip reports whether the link between a leaf and a spine
// is dead; killing every link of one spine models a full spine failure.
// The destination-modulo LFT computation then spreads the displaced
// traffic over the surviving spines, concentrating load exactly the way
// degraded real installations do.
func FatTreeDegraded(radix int, skip func(leaf, spine int) bool) (*Topology, error) {
	if skip == nil {
		return FatTree(radix)
	}
	return fatTree(radix, fmt.Sprintf("fattree-%d-degraded", radix), skip)
}

// DeadSpines returns a skip function removing every link of the given
// spines.
func DeadSpines(spines ...int) func(leaf, spine int) bool {
	dead := make(map[int]bool, len(spines))
	for _, s := range spines {
		dead[s] = true
	}
	return func(leaf, spine int) bool { return dead[spine] }
}

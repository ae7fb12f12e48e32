// Package core assembles complete experiments: it builds the fat-tree
// fabric, populates it with the paper's node mixes (C contributors, V
// victims, B nodes with hotspot share p), installs the congestion
// control manager when enabled, runs the simulation, and reduces the
// counters to the quantities the paper's tables and figures report.
package core

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Scenario describes one simulation run. The zero value is not valid;
// start from Default and adjust.
type Scenario struct {
	// Name labels the run in reports.
	Name string
	// Radix is the fat-tree crossbar radix; 36 is the paper's Sun DCS
	// 648 (648 nodes), smaller radices scale the same family down.
	Radix int
	// Seed drives every random choice (roles, hotspots, destinations).
	Seed uint64

	// CCOn enables the congestion control mechanism.
	CCOn bool
	// Backend selects the congestion-control backend by registry name
	// when CCOn is set; empty resolves to cc.DefaultBackend (the classic
	// IB CCA manager). The omitempty tag keeps the canonical JSON — and
	// with it exp.Fingerprint — identical to pre-backend scenarios
	// whenever the default is in effect.
	Backend string `json:"Backend,omitempty"`
	// CC are the congestion control parameters (Table I by default).
	// They configure the default ibcc backend only; the other backends
	// carry their own calibration.
	CC cc.Params
	// Fabric is the network configuration.
	Fabric fabric.Config

	// FracBPct is the percentage of nodes that are B nodes (the windy
	// scenarios exchange 25/50/75/100% of the population).
	FracBPct int
	// PPercent is the hotspot share p of every B node.
	PPercent int
	// FracCOfRestPct splits the non-B population into C contributors
	// and V victims (the paper uses 80% C / 20% V unless stated).
	FracCOfRestPct int
	// CNodesActive lets Table II's baseline rows keep the C nodes
	// silent while the V nodes run.
	CNodesActive bool

	// NumHotspots is the number of hotspots (8 in every experiment).
	NumHotspots int
	// HotspotLifetime, when positive, moves each subset's hotspot to a
	// fresh random node every lifetime (the moving forests); zero
	// keeps hotspots static.
	HotspotLifetime sim.Duration

	// Warmup runs before measurement starts; Measure is the window the
	// reported rates cover.
	Warmup  sim.Duration
	Measure sim.Duration

	// BacklogCap is the per-stream outstanding-message bound of each
	// generator.
	BacklogCap int

	// SeparateHotspotVL carries hotspot traffic on its own virtual
	// lane (the set-aside-queue alternative to throttling discussed in
	// the paper's introduction). The fabric is given a second VL
	// automatically.
	SeparateHotspotVL bool

	// Faults, when non-nil and non-zero, is the deterministic fault-
	// injection plan executed alongside the traffic (its own RNG
	// stream, so traffic draws are untouched). The omitempty tag keeps
	// the canonical JSON — and with it exp.Fingerprint — identical to
	// pre-fault scenarios whenever no plan is set.
	Faults *fault.Plan `json:"Faults,omitempty"`
}

// Default returns the paper's baseline configuration at the given radix:
// 80% C / 20% V, 8 static hotspots, CC parameters from Table I, fabric
// calibration from section IV. The CC parameters are Table I's at every
// radix.
func Default(radix int) Scenario {
	return Scenario{
		Name:           fmt.Sprintf("fattree-%d", radix),
		Radix:          radix,
		Seed:           1,
		CCOn:           true,
		CC:             cc.PaperParams(),
		Fabric:         fabric.DefaultConfig(),
		FracBPct:       0,
		PPercent:       0,
		FracCOfRestPct: 80,
		CNodesActive:   true,
		NumHotspots:    8,
		Warmup:         4 * sim.Millisecond,
		Measure:        8 * sim.Millisecond,
	}
}

// NumNodes returns the end-node count of the scenario's fat-tree.
func (s *Scenario) NumNodes() int { return s.Radix * s.Radix / 2 }

// Validate reports configuration errors.
func (s *Scenario) Validate() error {
	switch {
	case s.Radix < 4 || s.Radix%2 != 0:
		return fmt.Errorf("core: radix %d invalid (even, >= 4)", s.Radix)
	case s.FracBPct < 0 || s.FracBPct > 100:
		return fmt.Errorf("core: B fraction %d%% out of range", s.FracBPct)
	case s.PPercent < 0 || s.PPercent > 100:
		return fmt.Errorf("core: p %d out of range", s.PPercent)
	case s.FracCOfRestPct < 0 || s.FracCOfRestPct > 100:
		return fmt.Errorf("core: C fraction %d%% out of range", s.FracCOfRestPct)
	case s.NumHotspots < 1 || s.NumHotspots > s.NumNodes()/2:
		return fmt.Errorf("core: %d hotspots in a %d-node network", s.NumHotspots, s.NumNodes())
	case s.Warmup < 0 || s.Measure <= 0:
		return fmt.Errorf("core: warmup/measure invalid")
	case s.HotspotLifetime < 0:
		return fmt.Errorf("core: negative hotspot lifetime")
	}
	if s.CCOn {
		if !cc.Known(s.Backend) {
			return fmt.Errorf("core: unknown cc backend %q (registered: %v)", s.Backend, cc.Names())
		}
		// The IB CCA parameter set configures the default backend only;
		// other backends may run with a zero Params.
		if s.Backend == "" || s.Backend == cc.DefaultBackend {
			if err := s.CC.Validate(); err != nil {
				return err
			}
		}
	}
	if s.Faults != nil {
		// Structural validation only here; Build re-validates against
		// the concrete link set once the fabric exists.
		if err := s.Faults.Validate(nil); err != nil {
			return err
		}
	}
	return s.Fabric.Validate()
}

// TMaxNonHotspotGbps is the theoretical maximum average receive rate of
// the non-hotspot nodes if the hotspots were absent (the tmax curve of
// figures 5–8): all uniformly-destined offered load, spread evenly over
// the other nodes, capped by the end-node receive rate.
func (s *Scenario) TMaxNonHotspotGbps() float64 {
	n := s.NumNodes()
	inj := s.Fabric.InjectionRate.Gbps()
	numB := n * s.FracBPct / 100
	rest := n - numB
	numC := rest * s.FracCOfRestPct / 100
	numV := rest - numC
	uniform := float64(numB)*inj*float64(100-s.PPercent)/100 + float64(numV)*inj
	perNode := uniform / float64(n-1)
	if cap := s.Fabric.SinkRate.Gbps(); perNode > cap {
		perNode = cap
	}
	return perNode
}

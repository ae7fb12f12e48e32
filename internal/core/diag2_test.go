package core

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/cc"
	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestDiagThresholdSweep compares threshold reference multiples.
func TestDiagThresholdSweep(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("diagnostic")
	}
	for _, factor := range []int{2, 3, 4} {
		for _, radix := range []int{12, 18} {
			s := Default(radix)
			contribs := s.NumNodes() * 80 / 100 / s.NumHotspots
			s.CC.CCTILimit = uint16(factor*contribs - 1)
			s.CC.ThresholdRefMultiple = 4
			s.Warmup = 4 * sim.Millisecond
			s.Measure = 8 * sim.Millisecond
			s.CCOn = true
			on, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Printf("limit=%3d radix=%2d: hot=%6.3fG non=%6.3fG total=%7.1fG maxCCTI=%d marks=%d\n",
				s.CC.CCTILimit, radix, on.Summary.HotspotAvgGbps, on.Summary.NonHotspotAvgGbps,
				on.Summary.TotalGbps, on.CCStats.MaxCCTI, on.CCStats.FECNMarked)
		}
	}
}

// TestDiagWindy prints a reduced figure-8-style sweep (100% B nodes).
func TestDiagWindy(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("diagnostic")
	}
	base := Default(18)
	for _, fracB := range []int{25, 100} {
		pts, err := RunWindySweepOpts(base, fracB, []int{0, 30, 60, 90, 100}, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		PrintWindy(os.Stdout, "diag", fracB, pts)
	}
}

// TestDiagMoving prints a reduced figure-9(a)-style sweep.
func TestDiagMoving(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("diagnostic")
	}
	base := Default(12)
	lts := []sim.Duration{2 * sim.Millisecond, 1 * sim.Millisecond, 500 * sim.Microsecond, 250 * sim.Microsecond}
	pts, err := RunMovingSweepOpts(base, lts, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	PrintMoving(os.Stdout, "diag", "80% C / 20% V", pts)
}

// TestDiagHotspot traces one hotspot's rate and its contributors' CCTI.
func TestDiagHotspot(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("diagnostic")
	}
	s := Default(12)
	s.CCOn = true

	tp, _ := topo.FatTree(s.Radix)
	lft, _ := topo.ComputeLFT(tp)
	simr := sim.New()
	net, _ := fabric.New(simr, tp, lft, s.Fabric, fabric.Hooks{})
	mgr, _ := cc.New(net, s.CC)
	net.SetHooks(mgr.Hooks())

	root := sim.NewRNG(s.Seed)
	pop := assignRoles(&s, root.Derive(1))
	targeters := buildTargeters(&s, &pop, root.Derive(2))
	var contributors []ib.LID
	h0 := pop.Hotspots[0]
	for node := 0; node < s.NumNodes(); node++ {
		role := pop.Roles[node]
		p := 0
		var hs traffic.Targeter
		if role != RoleV {
			p = 100
			hs = targeters[pop.Subset[node]]
			if pop.Subset[node] == 0 {
				contributors = append(contributors, ib.LID(node))
			}
		}
		gen, err := traffic.NewGenerator(traffic.NodeConfig{
			LID: ib.LID(node), NumNodes: s.NumNodes(), PPercent: p, Hotspot: hs,
			InjectionRate: s.Fabric.InjectionRate, Throttle: mgr,
			RNG: root.Derive(1000 + uint64(node)),
		})
		if err != nil {
			t.Fatal(err)
		}
		net.HCA(ib.LID(node)).SetSource(gen)
	}
	t.Logf("hotspot %d has %d contributors; fair share %.2fG -> CCTI ~%.0f",
		h0, len(contributors), 13.6/float64(len(contributors)),
		20.0/(13.6/float64(len(contributors)))-1)
	net.Start()
	var prev uint64
	step := 100 * sim.Microsecond
	for i := 1; i <= 60; i++ {
		simr.RunUntil(sim.Time(0).Add(sim.Duration(i) * step))
		cur := net.HCA(h0).Counters().RxBytes
		sum, maxc, minc := 0, uint16(0), uint16(9999)
		for _, c := range contributors {
			v := mgr.CCTI(c, h0)
			sum += int(v)
			if v > maxc {
				maxc = v
			}
			if v < minc {
				minc = v
			}
		}
		st := mgr.Stats()
		fmt.Printf("t=%6v rate=%6.2fG ccti(avg=%4.1f min=%d max=%d) marks=%d becn=%d\n",
			sim.Duration(i)*step, float64(cur-prev)*8/step.Seconds()/1e9,
			float64(sum)/float64(len(contributors)), minc, maxc, st.FECNMarked, st.BECNReceived)
		prev = cur
	}
	_ = metrics.Gbps
}

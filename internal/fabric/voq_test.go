package fabric

import (
	"strings"
	"testing"

	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestVoQRingLayoutNonPow2 pins the VoQ ring for a switch with a
// non-power-of-two port count and VL count: the port dimension is the
// switch's own, the lane stride rounds up to a power of two, every real
// (inPort, vl) pair maps to a distinct slot inside the ring, and
// recovering inPort from a slot index inverts the mapping.
func TestVoQRingLayoutNonPow2(t *testing.T) {
	tp, err := topo.SingleSwitch(3) // 3 connected ports: non-pow2
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.NumVLs = 3 // non-pow2: stride must pad to 4
	n := buildNet(t, tp, cfg, Hooks{})
	sw := n.switches[0]
	op := sw.out[0]
	if sw.vlShift != 2 {
		t.Fatalf("vlShift = %d, want 2", sw.vlShift)
	}
	if len(op.voqs()) != 12 { // 3 ports << 2
		t.Fatalf("len(voqs) = %d, want 12", len(op.voqs()))
	}
	if len(op.occ()) != 1 {
		t.Fatalf("len(occ) = %d words, want 1", len(op.occ()))
	}
	seen := map[int]bool{}
	for inPort := 0; inPort < 3; inPort++ {
		for vl := 0; vl < cfg.NumVLs; vl++ {
			k := inPort<<sw.vlShift | vl
			if k >= len(op.voqs()) {
				t.Fatalf("slot %d for (%d,%d) outside ring", k, inPort, vl)
			}
			if seen[k] {
				t.Fatalf("slot %d aliases two (inPort, vl) pairs", k)
			}
			seen[k] = true
			if got := k >> sw.vlShift; got != inPort {
				t.Fatalf("slot %d recovers inPort %d, want %d", k, got, inPort)
			}
		}
	}
}

// TestCheckVoQOccupancyCatchesStaleBits: a set bit on an empty queue
// and one past the ring's end — which the arbiter would resolve to the
// next port's queue — both fail the occupancy audit.
func TestCheckVoQOccupancyCatchesStaleBits(t *testing.T) {
	tp, err := topo.SingleSwitch(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.NumVLs = 3
	for _, c := range []struct {
		bit  uint
		want string
	}{{1, "occupancy bit true with 0 packets"}, {12, "beyond the ring of 12"}} {
		n := buildNet(t, tp, cfg, Hooks{})
		n.switches[0].out[0].occ()[0] |= 1 << c.bit
		if err := n.CheckVoQOccupancy(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("bit %d: error %v, want %q", c.bit, err, c.want)
		}
	}
}

// TestArbiterOrderMatchesUnpaddedLayout checks that the ring's cyclic
// scan, lane stride padded, visits real (inPort, vl) pairs in exactly
// the order the fully unpadded inPort*numVLs+vl layout did, for every
// starting pointer — the argument that grant sequences (and so
// trajectories) are byte-identical across the layout change.
func TestArbiterOrderMatchesUnpaddedLayout(t *testing.T) {
	for _, tc := range []struct{ ports, vls int }{{3, 3}, {4, 1}, {5, 2}, {36, 3}} {
		vlShift := uint(0)
		for 1<<vlShift < tc.vls {
			vlShift++
		}
		ringSize := tc.ports << vlShift

		type pair struct{ in, vl int }
		// Reference: unpadded lexicographic enumeration.
		var ref []pair
		for in := 0; in < tc.ports; in++ {
			for vl := 0; vl < tc.vls; vl++ {
				ref = append(ref, pair{in, vl})
			}
		}
		real := func(k int) (pair, bool) {
			in, vl := k>>vlShift, k&(1<<vlShift-1)
			return pair{in, vl}, vl < tc.vls
		}
		for start := 0; start < ringSize; start++ {
			var got []pair
			for i := 0; i < ringSize; i++ {
				if p, ok := real((start + i) % ringSize); ok {
					got = append(got, p)
				}
			}
			if len(got) != len(ref) {
				t.Fatalf("ports=%d vls=%d start=%d: visited %d pairs, want %d", tc.ports, tc.vls, start, len(got), len(ref))
			}
			// got must be a rotation of ref.
			rot := -1
			for i, p := range ref {
				if p == got[0] {
					rot = i
					break
				}
			}
			for i := range got {
				if got[i] != ref[(rot+i)%len(ref)] {
					t.Fatalf("ports=%d vls=%d start=%d: scan order %v is not a rotation of %v", tc.ports, tc.vls, start, got, ref)
				}
			}
		}
	}
}

// TestVoQTrafficNonPow2 runs real traffic through a 3-port, 3-VL switch
// so the padded ring carries packets end to end.
func TestVoQTrafficNonPow2(t *testing.T) {
	tp, err := topo.SingleSwitch(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.NumVLs = 3
	n := buildNet(t, tp, cfg, Hooks{})
	n.HCA(0).SetSource(&floodSource{src: 0, dst: 2, remaining: 5})
	n.HCA(1).SetSource(&floodSource{src: 1, dst: 2, remaining: 5})
	n.Start()
	n.Sim().Run()
	if got := n.HCA(2).Counters().RxDataPayload; got != 10*ib.MTU {
		t.Fatalf("delivered %d bytes, want %d", got, 10*ib.MTU)
	}
	if err := n.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

func TestVLArbitrationShares(t *testing.T) {
	// Two senders on different VLs converge on one receiver: the
	// round-robin arbiter must serve both lanes evenly even though
	// each lane has its own credit pool.
	tp, _ := topo.SingleSwitch(3)
	cfg := testCfg()
	cfg.NumVLs = 2
	r, _ := topo.ComputeLFT(tp)
	n, err := New(sim.New(), tp, r, cfg, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(src ib.LID, vl ib.VL) *vlFlood {
		return &vlFlood{floodSource: floodSource{src: src, dst: 0, remaining: -1}, vl: vl}
	}
	n.HCA(1).SetSource(mk(1, 0))
	n.HCA(2).SetSource(mk(2, 1))
	n.Start()
	window := 2 * sim.Millisecond
	n.Sim().RunUntil(sim.Time(0).Add(window))
	rx := n.HCA(0).Counters()
	if rx.RxBytes == 0 {
		t.Fatal("nothing delivered")
	}
	a := float64(n.HCA(1).Counters().TxDataPayload)
	b := float64(n.HCA(2).Counters().TxDataPayload)
	if ratio := a / b; ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("VL service unfair: %.3f", ratio)
	}
}

// vlFlood floods on a fixed virtual lane.
type vlFlood struct {
	floodSource
	vl ib.VL
}

func (f *vlFlood) Pull(now sim.Time) (*ib.Packet, sim.Time) {
	p, wake := f.floodSource.Pull(now)
	if p != nil {
		p.VL = f.vl
	}
	return p, wake
}

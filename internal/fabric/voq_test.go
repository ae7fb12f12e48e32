package fabric

import (
	"testing"

	"repro/internal/ib"
	"repro/internal/topo"
)

// TestVoQRingLayoutNonPow2 pins the padded power-of-two VoQ ring for a
// switch with a non-power-of-two port count and VL count: the ring size
// and stride must round up, every real (inPort, vl) pair must map to a
// distinct slot, and recovering inPort from a slot index must invert
// the mapping.
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
	if len(op.voqs()) != 16 { // pow2ceil(3 ports) << 2 = 4*4
		t.Fatalf("len(voqs) = %d, want 16", len(op.voqs()))
	}
	if int(sw.voqMask) != len(op.voqs())-1 {
		t.Fatalf("voqMask = %d, want %d", sw.voqMask, len(op.voqs())-1)
	}
	seen := map[int]bool{}
	for inPort := 0; inPort < 3; inPort++ {
		for vl := 0; vl < cfg.NumVLs; vl++ {
			k := inPort<<sw.vlShift | vl
			if k&int(sw.voqMask) != k {
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

func TestPow2Ceil(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 15: 16, 16: 16, 36: 64}
	for in, want := range cases {
		if got := pow2ceil(in); got != want {
			t.Fatalf("pow2ceil(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestArbiterOrderMatchesUnpaddedLayout checks that the padded ring's
// cyclic scan visits real (inPort, vl) pairs in exactly the order the
// old unpadded inPort*numVLs+vl layout did, for every starting pointer
// — the argument that grant sequences (and so trajectories) are
// byte-identical across the layout change.
func TestArbiterOrderMatchesUnpaddedLayout(t *testing.T) {
	for _, tc := range []struct{ ports, vls int }{{3, 3}, {4, 1}, {5, 2}, {36, 3}} {
		vlShift := uint(0)
		for 1<<vlShift < tc.vls {
			vlShift++
		}
		ringSize := pow2ceil(tc.ports) << vlShift
		mask := ringSize - 1

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
			return pair{in, vl}, in < tc.ports && vl < tc.vls
		}
		for start := 0; start < ringSize; start++ {
			var got []pair
			for i := 0; i < ringSize; i++ {
				if p, ok := real((start + i) & mask); ok {
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

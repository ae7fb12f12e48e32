package telemetry

import "testing"

func TestRingWraps(t *testing.T) {
	var r Ring
	if r.Len() != 0 || r.Last() != 0 {
		t.Fatalf("zero ring not empty")
	}
	n := RingCap + 100
	for i := 0; i < n; i++ {
		r.Push(float64(i), float64(i)*2)
	}
	if r.Len() != RingCap {
		t.Fatalf("len = %d, want %d", r.Len(), RingCap)
	}
	s := r.Snapshot()
	if len(s.TUS) != RingCap || len(s.V) != RingCap {
		t.Fatalf("snapshot lengths %d/%d", len(s.TUS), len(s.V))
	}
	// Oldest surviving point is n-RingCap; newest is n-1.
	if s.TUS[0] != float64(n-RingCap) || s.TUS[RingCap-1] != float64(n-1) {
		t.Fatalf("window [%v, %v], want [%d, %d]", s.TUS[0], s.TUS[RingCap-1], n-RingCap, n-1)
	}
	for i := 1; i < len(s.TUS); i++ {
		if s.TUS[i] != s.TUS[i-1]+1 {
			t.Fatalf("gap at %d", i)
		}
		if s.V[i] != s.TUS[i]*2 {
			t.Fatalf("value mismatch at %d", i)
		}
	}
	if r.Last() != float64(n-1)*2 {
		t.Fatalf("last = %v", r.Last())
	}
}

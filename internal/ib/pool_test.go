package ib

import (
	"testing"
	"unsafe"
)

func TestPacketPoolRecycles(t *testing.T) {
	pp := NewPacketPool()
	p1 := pp.Get()
	p1.ID = 42
	p1.FECN = true
	p1.PayloadBytes = MTU
	pp.Put(p1)
	if pp.FreeLen() != 1 {
		t.Fatalf("FreeLen = %d", pp.FreeLen())
	}
	p2 := pp.Get()
	if p2 != p1 {
		t.Fatal("pool did not recycle the released packet")
	}
	if *p2 != (Packet{}) {
		t.Fatalf("recycled packet not reset: %+v", *p2)
	}
	st := pp.Stats()
	if st.Gets != 2 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPacketPoolSteadyStateStopsAllocating(t *testing.T) {
	pp := NewPacketPool()
	// Warm the pool with the working set, then churn: misses must not
	// grow once the freelist covers the concurrency level.
	var live []*Packet
	for i := 0; i < 64; i++ {
		live = append(live, pp.Get())
	}
	for _, p := range live {
		pp.Put(p)
	}
	missesAfterWarm := pp.Stats().Misses
	for round := 0; round < 100; round++ {
		live = live[:0]
		for i := 0; i < 64; i++ {
			live = append(live, pp.Get())
		}
		for _, p := range live {
			pp.Put(p)
		}
	}
	if m := pp.Stats().Misses; m != missesAfterWarm {
		t.Fatalf("steady-state churn allocated: misses %d -> %d", missesAfterWarm, m)
	}
}

func TestPacketPoolNilSafe(t *testing.T) {
	var pp *PacketPool
	p := pp.Get()
	if p == nil {
		t.Fatal("nil pool must fall back to allocation")
	}
	pp.Put(p) // no-op
	if pp.Stats() != (PoolStats{}) || pp.FreeLen() != 0 {
		t.Fatal("nil pool must report zero state")
	}
	pool := NewPacketPool()
	pool.Put(nil) // no-op
	if pool.FreeLen() != 0 {
		t.Fatal("Put(nil) must not enqueue")
	}
}

func TestPacketPoolAdoptsForeignPackets(t *testing.T) {
	pp := NewPacketPool()
	p := &Packet{ID: 7}
	pp.Put(p)
	if got := pp.Get(); got != p {
		t.Fatal("adopted packet not recycled")
	}
}

func TestPacketReset(t *testing.T) {
	p := &Packet{ID: 9, Type: AckPacket, Src: 3, Dst: 4, FECN: true, BECN: true,
		Hotspot: true, MsgID: 8, MsgSeq: 1, MsgPackets: 2, PayloadBytes: 100, InjectTime: 55}
	p.Reset()
	if *p != (Packet{}) {
		t.Fatalf("Reset left state: %+v", *p)
	}
}

// The queue link must fit beside the model fields in the allocator's
// 64-byte class (one packet, one cache line) — and a packet carved from
// the pool's chunks must start a line of its own — and a recycled
// packet must never carry a link into its next lifetime.
func TestPacketLayoutAndResetClearLink(t *testing.T) {
	if sz := unsafe.Sizeof(Packet{}); sz > 64 {
		t.Fatalf("Packet is %d bytes; it must stay within the 64-byte size class", sz)
	}
	pp := NewPacketPool()
	for i := 0; i < 5000; i++ {
		if a := uintptr(unsafe.Pointer(pp.Get())); a%64+unsafe.Sizeof(Packet{}) > 64 {
			t.Fatalf("chunk-carved packet %d at %#x straddles a cache line", i, a)
		}
	}
	p := &Packet{ID: 1, Next: &Packet{ID: 2}}
	p.Reset()
	if p.Next != nil {
		t.Fatal("Reset left the queue link set")
	}
}

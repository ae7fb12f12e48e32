package fabric

import (
	"testing"
	"testing/quick"

	"repro/internal/ib"
)

// The tests below exercise ib.PacketQueue, the one intrusive FIFO the
// generator's flow queues share with the fabric's VoQs, staging buffers
// and sink queues. They stayed in this package, under their old names,
// when the type moved to ib: the fabric is where the queue's hot path is.

func TestPktQueueFIFO(t *testing.T) {
	var q ib.PacketQueue
	if q.Pop() != nil || q.Peek() != nil || q.Len() != 0 {
		t.Fatal("empty queue misbehaves")
	}
	pkts := make([]*ib.Packet, 20)
	for i := range pkts {
		pkts[i] = &ib.Packet{ID: uint64(i)}
		q.Push(pkts[i])
	}
	if q.Len() != 20 {
		t.Fatalf("Len = %d", q.Len())
	}
	if q.Peek() != pkts[0] {
		t.Fatal("Peek wrong")
	}
	for i := range pkts {
		if got := q.Pop(); got != pkts[i] {
			t.Fatalf("pos %d: got %v", i, got)
		}
	}
	if q.Len() != 0 {
		t.Fatal("not empty after drain")
	}
}

func TestPktQueueInterleaving(t *testing.T) {
	var q ib.PacketQueue
	id := uint64(0)
	next := uint64(0)
	// Interleave pushes and pops so the list repeatedly shrinks to one
	// or two packets and regrows.
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			q.Push(&ib.Packet{ID: id})
			id++
		}
		for i := 0; i < 2; i++ {
			p := q.Pop()
			if p == nil || p.ID != next {
				t.Fatalf("round %d: got %v want id %d", round, p, next)
			}
			next++
		}
	}
	for q.Len() > 0 {
		p := q.Pop()
		if p.ID != next {
			t.Fatalf("drain: got %d want %d", p.ID, next)
		}
		next++
	}
	if next != id {
		t.Fatalf("lost packets: %d of %d", next, id)
	}
}

// Property: any sequence of pushes and pops matches a reference slice
// implementation.
func TestPktQueueMatchesReference(t *testing.T) {
	f := func(ops []bool) bool {
		var q ib.PacketQueue
		var ref []*ib.Packet
		id := uint64(0)
		for _, push := range ops {
			if push {
				p := &ib.Packet{ID: id}
				id++
				q.Push(p)
				ref = append(ref, p)
			} else {
				var want *ib.Packet
				if len(ref) > 0 {
					want = ref[0]
					ref = ref[1:]
				}
				if q.Pop() != want {
					return false
				}
			}
			if q.Len() != len(ref) {
				return false
			}
			if len(ref) > 0 && q.Peek() != ref[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A queue that drains to empty must forget its tail, and popped packets
// must leave unlinked: a stale link would splice the next queue a packet
// joins onto this one's remains.
func TestPktQueueUnlinksOnPop(t *testing.T) {
	var q, other ib.PacketQueue
	a, b, c := &ib.Packet{ID: 1}, &ib.Packet{ID: 2}, &ib.Packet{ID: 3}
	q.Push(a)
	q.Push(b)
	if a.Next != b || b.Next != nil {
		t.Fatal("push did not link through Packet.Next")
	}
	if q.Pop() != a || a.Next != nil {
		t.Fatal("popped packet still linked")
	}
	other.Push(a)
	if q.Pop() != b || q.Len() != 0 || q.Peek() != nil {
		t.Fatal("queue not empty after draining")
	}
	q.Push(c) // must start a fresh list, not append behind b
	if q.Peek() != c || q.Len() != 1 || b.Next != nil {
		t.Fatal("drained queue kept its old tail")
	}
	if other.Pop() != a || other.Len() != 0 {
		t.Fatal("second queue disturbed")
	}
}

// Queue storage is the packets themselves: no push, at any occupancy,
// may allocate.
func TestPktQueueZeroAlloc(t *testing.T) {
	var q ib.PacketQueue
	pkts := make([]*ib.Packet, 1000)
	for i := range pkts {
		pkts[i] = &ib.Packet{ID: uint64(i)}
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, p := range pkts {
			q.Push(p)
		}
		for range pkts {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("Push/Pop allocated %v times per run, want 0", allocs)
	}
}

// BenchmarkPktQueue measures the steady-state push/pop cycle at a fixed
// occupancy — the pattern of every VoQ, staging buffer and sink queue on
// the per-packet path.
func BenchmarkPktQueue(b *testing.B) {
	var q ib.PacketQueue
	for i := 0; i < 24; i++ {
		q.Push(&ib.Packet{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(q.Pop())
	}
}

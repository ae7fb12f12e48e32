//go:build debug

package ib

import "testing"

func TestDebugDoubleReleasePanics(t *testing.T) {
	pp := NewPacketPool()
	p := pp.Get()
	pp.Put(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double release must panic under -tags debug")
		}
	}()
	pp.Put(p)
}

func TestDebugReleasePoisons(t *testing.T) {
	pp := NewPacketPool()
	p := pp.Get()
	p.Src, p.Dst, p.ID = 1, 2, 3
	pp.Put(p)
	if p.Src != NoLID || p.Dst != NoLID || p.ID != ^uint64(0) {
		t.Fatalf("released packet not poisoned: %+v", *p)
	}
	// Re-acquiring clears the poison again.
	if q := pp.Get(); q != p || *q != (Packet{}) {
		t.Fatal("reacquired packet must be reset")
	}
}

func TestDebugReleaseThenReacquireAllowsRelease(t *testing.T) {
	// A packet's next lifetime gets a fresh release permit.
	pp := NewPacketPool()
	p := pp.Get()
	pp.Put(p)
	q := pp.Get()
	pp.Put(q) // must not panic: new lifetime
}

func TestDebugReleaseOfLinkedPacketPanics(t *testing.T) {
	pp := NewPacketPool()
	p := pp.Get()
	p.Next = pp.Get() // still on a queue's list: a second holder exists
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a queue-linked packet must panic under -tags debug")
		}
	}()
	pp.Put(p)
}

// TestDebugChunkCarvedPacketOwnership holds the ownership rules for
// packets carved from the pool's chunks: releasing one poisons it and
// nothing else in its chunk, and releasing it twice panics.
func TestDebugChunkCarvedPacketOwnership(t *testing.T) {
	pp := NewPacketPool()
	ps := make([]*Packet, 200) // more than the first chunk holds
	for i := range ps {
		ps[i] = pp.Get()
		ps[i].ID = uint64(i)
	}
	for _, i := range []int{3, 150} {
		pp.Put(ps[i])
		if ps[i].Src != NoLID || ps[i].ID != ^uint64(0) {
			t.Fatalf("released packet %d not poisoned: %+v", i, *ps[i])
		}
		if ps[i+1].ID != uint64(i+1) {
			t.Fatalf("releasing packet %d disturbed its chunk neighbour: %+v", i, *ps[i+1])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double release of a chunk-carved packet must panic under -tags debug")
		}
	}()
	pp.Put(ps[150])
}

// TestDebugRestoreBuiltPacketAdopted covers packets a checkpoint
// restore builds in its own slab, never through Get: the pool adopts
// them on release and hands them out again, and the double-release
// check still holds for them.
func TestDebugRestoreBuiltPacketAdopted(t *testing.T) {
	pp := NewPacketPool()
	restored := make([]Packet, 2)
	restored[1].ID = 7
	p := &restored[1]
	pp.Put(p)
	if q := pp.Get(); q != p || *q != (Packet{}) {
		t.Fatal("adopted restore-built packet must be recycled, reset")
	}
	pp.Put(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double release of an adopted packet must panic under -tags debug")
		}
	}()
	pp.Put(p)
}

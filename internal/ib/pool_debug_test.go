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

//go:build debug

package ib

import "testing"

func TestDebugPushOfLinkedPacketPanics(t *testing.T) {
	var q, other PacketQueue
	a, b := &Packet{ID: 1}, &Packet{ID: 2}
	q.Push(a)
	q.Push(b) // a.Next == b: a is mid-list in q
	defer func() {
		if recover() == nil {
			t.Fatal("pushing a packet already linked into a queue must panic under -tags debug")
		}
	}()
	other.Push(a)
}

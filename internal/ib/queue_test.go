package ib

import "testing"

// A pop that drains the queue leaves tail pointing at the popped packet.
// The next Push must not follow it: the packet starts a new list, and the
// old tail — by then perhaps queued elsewhere — is not written.
func TestQueuePushAfterDrainOverStaleTail(t *testing.T) {
	var q, other PacketQueue
	a, b, c := &Packet{ID: 1}, &Packet{ID: 2}, &Packet{ID: 3}
	q.Push(a)
	if q.Pop() != a || !q.Empty() || q.tail != a {
		t.Fatal("want a drained queue whose stale tail is the popped packet")
	}
	other.Push(a) // the stale tail now lives in another queue
	q.Push(b)
	q.Push(c)
	if a.Next != nil || other.Len() != 1 {
		t.Fatal("push over a stale tail wrote through it into another queue")
	}
	if q.Len() != 2 || q.Pop() != b || q.Pop() != c || !q.Empty() || q.Pop() != nil {
		t.Fatal("queue refilled over a stale tail lost its order")
	}
}

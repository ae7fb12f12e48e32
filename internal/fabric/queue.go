package fabric

import "repro/internal/ib"

// pktQueue is an intrusive FIFO of packets, linked through
// ib.Packet.Next, used for VoQs, staging buffers and sink queues. The
// queue owns every packet on its list — the single-owner lifecycle
// means a packet is in at most one queue, so the link lives in the
// packet and the simulator's hottest path touches no memory but the
// queue header and the packets themselves.
type pktQueue struct {
	head, tail *ib.Packet
	n          int
}

// Len returns the number of queued packets.
func (q *pktQueue) Len() int { return q.n }

// Push appends p to the tail. p must not be in any queue.
func (q *pktQueue) Push(p *ib.Packet) {
	if ib.Debug && p.Next != nil {
		panic("fabric: packet pushed while linked into a queue")
	}
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.Next = p
	}
	q.tail = p
	q.n++
}

// Peek returns the head packet without removing it, or nil if empty.
func (q *pktQueue) Peek() *ib.Packet { return q.head }

// Pop removes and returns the head packet, or nil if empty.
func (q *pktQueue) Pop() *ib.Packet {
	p := q.head
	if p == nil {
		return nil
	}
	q.head = p.Next
	if q.head == nil {
		q.tail = nil
	}
	p.Next = nil
	q.n--
	return p
}

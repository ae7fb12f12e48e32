package ib

// PacketQueue is an intrusive FIFO of packets, linked through
// Packet.Next. Every place a packet waits uses it: the generator's
// per-flow queues, the fabric's VoQs, staging buffers and sink queues.
// The queue owns every packet on its list — the single-owner lifecycle
// means a packet is in at most one queue, so the link lives in the
// packet and the simulator's hottest path touches no memory but the
// queue header and the packets themselves. The zero value is an empty
// queue.
type PacketQueue struct {
	head, tail *Packet
	n          int
}

// Len returns the number of queued packets.
func (q *PacketQueue) Len() int { return q.n }

// Push appends p to the tail. p must not be in any queue.
func (q *PacketQueue) Push(p *Packet) {
	if Debug && p.Next != nil {
		panic("ib: packet pushed while linked into a queue")
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
func (q *PacketQueue) Peek() *Packet { return q.head }

// Pop removes and returns the head packet, or nil if empty.
func (q *PacketQueue) Pop() *Packet {
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

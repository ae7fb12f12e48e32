package ib

// PacketQueue is an intrusive FIFO of packets, linked through
// Packet.Next. Every place a packet waits uses it: the generator's
// per-flow queues, the fabric's VoQs, staging buffers and sink queues.
// The queue owns every packet on its list — the single-owner lifecycle
// means a packet is in at most one queue, so the link lives in the
// packet and the simulator's hottest path touches no memory but the
// queue header and the packets themselves. The zero value is an empty
// queue.
//
// The header is the two pointers and nothing else: the fabric keeps
// thousands of mostly empty VoQ headers, every hot caller only ever asks
// whether the queue is empty, and a count would be a third word to load
// and store on every push and pop. tail is meaningful only while head is
// non-nil, so a pop that drains the queue leaves it stale rather than
// writing it.
type PacketQueue struct {
	head, tail *Packet
}

// Empty reports whether no packet is queued.
func (q *PacketQueue) Empty() bool { return q.head == nil }

// Len counts the queued packets by walking the list: for census,
// checkpoint and test code, not for the per-packet path.
func (q *PacketQueue) Len() int {
	n := 0
	for p := q.head; p != nil; p = p.Next {
		n++
	}
	return n
}

// Push appends p to the tail. p must not be in any queue.
func (q *PacketQueue) Push(p *Packet) {
	if Debug && p.Next != nil {
		panic("ib: packet pushed while linked into a queue")
	}
	if q.head == nil {
		q.head = p
	} else {
		q.tail.Next = p
	}
	q.tail = p
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
	p.Next = nil
	return p
}

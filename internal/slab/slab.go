// Package slab carves objects a run creates in bulk out of chunks, so a
// pool that grows to n objects makes O(log n) allocations instead of n.
package slab

// Chunk lengths double from minChunk to maxChunk objects: a pool's
// allocations grow with the logarithm of its peak, and a pool taking one
// object at a time wastes at most the unused rest of its last chunk.
const (
	minChunk = 64
	maxChunk = 4096
)

// Chunks hands out zeroed Ts carved from chunks. Its zero value is ready
// to use. Objects are never returned to it: the pools that own them
// recycle them on their freelists, and a chunk lives as long as any
// object carved from it is reachable.
type Chunks[T any] struct {
	buf  []T
	next int // length of the last chunk made; 0 before the first
}

// New returns a pointer to a zero T.
func (c *Chunks[T]) New() *T { return &c.Make(1)[0] }

// Make returns n zero Ts, capped at n so that an append to them
// reallocates instead of running into the next carving. A request
// larger than the rest of the chunk starts a new one, at least n long.
func (c *Chunks[T]) Make(n int) []T {
	if len(c.buf) < n {
		c.next = min(max(2*c.next, minChunk), maxChunk)
		c.buf = make([]T, max(c.next, n))
	}
	s := c.buf[:n:n]
	c.buf = c.buf[n:]
	return s
}

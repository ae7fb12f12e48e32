package ib

import (
	"unsafe"

	"repro/internal/slab"
)

// Packet memory lifecycle. The simulator moves tens of millions of
// packets per run and every one of them dies at a host sink, so packets
// are recycled through a freelist instead of being handed to the
// garbage collector: generators and the CC manager acquire with Get,
// the delivering sink releases with Put once every delivery consumer
// has returned. A Get that finds the freelist empty carves the packet
// from a chunk (see internal/slab), so a run whose pool peaks at n
// packets makes O(log n) allocations for them. Ownership is
// single-holder and transfers with the packet: whoever holds the
// pointer owns it, and no component may keep a *Packet past the call
// that handed it over (observability consumers copy the fields they
// need into value events). The `debug` build tag turns ownership
// violations into panics; see poolcheck_debug.go.

// Reset returns p to the zero state a freshly allocated packet has.
// Get calls it on every recycled packet, so stale FECN/BECN bits or
// message identity can never leak between packet lifetimes.
func (p *Packet) Reset() { *p = Packet{} }

// PoolStats counts a pool's traffic; tests and the kernel benchmark
// harness use it to prove steady-state runs stop allocating.
type PoolStats struct {
	// Gets counts acquisitions; Misses the Gets that found the
	// freelist empty.
	Gets, Misses uint64
	// Puts counts releases.
	Puts uint64
}

// PacketPool is a freelist of packets. It is not safe for concurrent
// use — like the simulator that drives it, the packet lifecycle is
// strictly sequential within a run (parallel experiments use one pool
// per network). A nil *PacketPool is valid and degrades to plain heap
// allocation, so components can be wired with or without pooling.
type PacketPool struct {
	free   []*Packet
	chunks slab.Chunks[linePacket]
	stats  PoolStats
	check  poolChecker
}

// linePacket is what a chunk holds: a packet padded to the 64-byte cache
// line, the size class a packet allocated alone has, so that no
// chunk-carved packet straddles two lines. The padding trails the
// packet: a chunk's elements start at a line, or 8 bytes past one where
// the allocator puts its type header in front of the chunk, and a
// 56-byte packet fits the line either way.
type linePacket struct {
	Packet
	_ [64 - unsafe.Sizeof(Packet{})]byte
}

// NewPacketPool returns an empty pool.
func NewPacketPool() *PacketPool { return &PacketPool{} }

// Get returns a reset packet, recycling a released one when available.
func (pp *PacketPool) Get() *Packet {
	if pp == nil {
		return &Packet{}
	}
	pp.stats.Gets++
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		pp.check.onGet(p)
		p.Reset()
		return p
	}
	pp.stats.Misses++
	return &pp.chunks.New().Packet
}

// Put releases p back to the pool. The caller must be the packet's sole
// owner and must not touch p afterwards; under the debug build tag a
// double release panics and released packets are poisoned so stale
// readers see garbage instead of plausible data. Packets that were
// allocated outside the pool are adopted. Put(nil) is a no-op, as is
// any Put on a nil pool.
func (pp *PacketPool) Put(p *Packet) {
	if pp == nil || p == nil {
		return
	}
	pp.check.onPut(p)
	pp.stats.Puts++
	pp.free = append(pp.free, p)
}

// Stats returns a snapshot of the pool's traffic counters.
func (pp *PacketPool) Stats() PoolStats {
	if pp == nil {
		return PoolStats{}
	}
	return pp.stats
}

// Live reports how many acquired packets are currently outstanding
// (Gets − Puts): every packet some model component owns right now. The
// runtime invariant checker balances it against a walk of all holding
// sites to detect leaks and double releases.
func (pp *PacketPool) Live() int {
	if pp == nil {
		return 0
	}
	return int(pp.stats.Gets - pp.stats.Puts)
}

// RestoreStats overwrites the traffic counters with a checkpointed
// snapshot. Restore rebuilds live packets directly (never through Get),
// so the books must be installed wholesale for Live() to keep matching
// the custody census the invariant checker runs.
func (pp *PacketPool) RestoreStats(st PoolStats) {
	if pp == nil {
		return
	}
	pp.stats = st
}

// FreeLen reports how many released packets the pool currently holds.
func (pp *PacketPool) FreeLen() int {
	if pp == nil {
		return 0
	}
	return len(pp.free)
}

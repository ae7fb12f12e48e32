//go:build debug

package ib

// Debug-build ownership enforcement for the packet lifecycle. The rules
// it checks:
//
//   - a packet may be released at most once per lifetime (double Put is
//     the two-owners bug and panics immediately);
//   - a packet may be released only by its sole owner: a packet still
//     linked into a queue (Next != nil) has a second holder, so
//     Put panics, as does a queue Push of an already-linked packet
//     (the fabric checks Debug for that);
//   - a released packet must not be read: Put poisons every field with
//     garbage, so a consumer that retained a *Packet past its delivery
//     callback sees impossible values (negative LIDs, a screaming ID)
//     instead of plausibly stale ones.
//
// The checker lives entirely behind the `debug` build tag; release
// builds compile the no-op variant in poolcheck_release.go.
type poolChecker struct {
	free map[*Packet]struct{}
}

// Debug reports whether ownership checking is compiled in, so other
// packages can guard their own lifecycle assertions with a constant the
// release build folds away.
const Debug = true

func (c *poolChecker) onGet(p *Packet) {
	delete(c.free, p)
}

func (c *poolChecker) onPut(p *Packet) {
	if c.free == nil {
		c.free = make(map[*Packet]struct{})
	}
	if _, dup := c.free[p]; dup {
		panic("ib: double release of packet to pool")
	}
	if p.Next != nil {
		panic("ib: release of a packet still linked into a queue")
	}
	c.free[p] = struct{}{}
	poison(p)
}

// poison overwrites p with values no live packet can carry.
func poison(p *Packet) {
	*p = Packet{
		ID:           ^uint64(0),
		Type:         PacketType(0xee),
		Src:          NoLID,
		Dst:          NoLID,
		PayloadBytes: -1,
		MsgID:        ^uint64(0),
	}
}

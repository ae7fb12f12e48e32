//go:build !debug

package ib

// poolChecker is the release-build ownership checker: a zero-size
// no-op, so pooling costs nothing beyond the freelist operations. Build
// with -tags debug to enable the checking variant.
type poolChecker struct{}

// Debug reports whether ownership checking is compiled in.
const Debug = false

func (poolChecker) onGet(*Packet) {}
func (poolChecker) onPut(*Packet) {}

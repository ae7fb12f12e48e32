package telemetry

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// A hub reader keeps no time series: over a 1 200-bin run of
// deliveries and queue samples it allocates nothing per event, where a
// sampler appends a row per bin, and at finish the hub holds every
// message's span and the port's peak.
func TestHubReaderAllocs(t *testing.T) {
	h := NewHub(0)
	b := obs.New()
	finish := h.StartRun(b)
	p := dataPacket(2, 8, 5, 0, 1, 0, false)
	i := 0
	if a := testing.AllocsPerRun(1200, func() {
		at := sim.Time(int64(i)*int64(10*sim.Microsecond) + 1)
		b.QueueSampled(at, 3, 4, false, 0, (i%7)*1024)
		b.PacketDelivered(at, 8, p)
		i++
	}); a != 0 {
		t.Fatalf("a hub-read run allocated %v per bin", a)
	}
	finish()
	snap := h.Snapshot()
	if snap.Runs != 1 || snap.Completion.Count != uint64(i) ||
		len(snap.HotPorts) != 1 || snap.HotPorts[0] != (HotPort{Switch: 3, Port: 4, PeakKB: 6}) {
		t.Fatalf("after %d deliveries: %+v", i, snap)
	}
}

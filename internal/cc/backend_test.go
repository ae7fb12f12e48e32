package cc

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/topo"
)

func backendNet(t *testing.T) *fabric.Network {
	t.Helper()
	tp, _ := topo.SingleSwitch(4)
	r, err := topo.ComputeLFT(tp)
	if err != nil {
		t.Fatal(err)
	}
	n, err := fabric.New(sim.New(), tp, r, fabric.DefaultConfig(), fabric.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRegistryNames(t *testing.T) {
	if got, want := Names(), []string{"ibcc", "nocc", "oracle"}; !slices.Equal(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
	for _, name := range []string{"", "ibcc", "nocc", "oracle"} {
		if !Known(name) {
			t.Errorf("Known(%q) = false", name)
		}
	}
	if Known("bogus") {
		t.Error("Known(bogus) = true")
	}
}

func TestNewBackendDefaultIsManager(t *testing.T) {
	n := backendNet(t)
	b, err := NewBackend("", n, BackendConfig{Params: PaperParams()})
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != DefaultBackend {
		t.Fatalf("default backend name = %q, want %q", b.Name(), DefaultBackend)
	}
	if _, ok := b.(*Manager); !ok {
		t.Fatalf("default backend is %T, want *Manager", b)
	}
	if b.Throttle() == nil {
		t.Fatal("ibcc backend must expose an injection gate")
	}
}

func TestNewBackendUnknownListsRegistry(t *testing.T) {
	n := backendNet(t)
	_, err := NewBackend("does-not-exist", n, BackendConfig{})
	if err == nil {
		t.Fatal("expected error for unknown backend")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered backend %q", err, name)
		}
	}
}

func TestNoCCBackendIsInert(t *testing.T) {
	n := backendNet(t)
	b, err := NewBackend("nocc", n, BackendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := b.Hooks()
	if h.SwitchEnqueue != nil || h.SwitchDeparture != nil || h.Deliver != nil || h.SelectVL != nil {
		t.Error("nocc installs fabric hooks")
	}
	if b.Throttle() != nil {
		t.Error("nocc gates injection")
	}
	if b.Stats() != (Stats{}) {
		t.Errorf("nocc stats = %+v, want zero", b.Stats())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Errorf("nocc invariants: %v", err)
	}
	if flows, mean := b.ThrottleSummary(); flows != 0 || mean != 0 {
		t.Errorf("nocc throttle summary = (%d, %v)", flows, mean)
	}
	b.SetBus(nil) // must be a no-op, not a panic
}

func TestOracleIRD(t *testing.T) {
	inj := sim.Gbps(13.6)
	wire := (&ib.Packet{Type: ib.DataPacket, PayloadBytes: ib.MTU}).WireBytes()
	shares := map[ib.FlowKey]sim.Rate{
		{Src: 1, Dst: 0}: inj / 4,
		{Src: 2, Dst: 0}: inj * 2, // above line: never delayed
	}
	o, err := NewOracle(shares, inj)
	if err != nil {
		t.Fatal(err)
	}
	// A flow paced to a quarter of line rate needs spacing 4×wire-time:
	// the gate adds the 3×wire-time the generator does not (modulo the
	// integer truncation of each TxTime).
	want := 3 * inj.TxTime(wire)
	if got := o.IRD(1, 0, wire); got < want-sim.Nanosecond || got > want+sim.Nanosecond {
		t.Errorf("gated flow IRD = %v, want ~%v", got, want)
	}
	if got := o.IRD(2, 0, wire); got != 0 {
		t.Errorf("above-line share IRD = %v, want 0", got)
	}
	if got := o.IRD(3, 0, wire); got != 0 {
		t.Errorf("unlisted flow IRD = %v, want 0", got)
	}
	flows, mean := o.ThrottleSummary()
	if flows != 2 {
		t.Errorf("flows = %d, want 2", flows)
	}
	if want := (4.0 + 0.5) / 2; mean < want-1e-9 || mean > want+1e-9 {
		t.Errorf("mean pacing depth = %v, want %v", mean, want)
	}
}

func TestOracleValidation(t *testing.T) {
	if _, err := NewOracle(nil, 0); err == nil {
		t.Error("zero injection rate accepted")
	}
	bad := map[ib.FlowKey]sim.Rate{{Src: 1, Dst: 0}: 0}
	if _, err := NewOracle(bad, sim.Gbps(13.6)); err == nil {
		t.Error("zero share accepted")
	}
	o, err := NewOracle(nil, sim.Gbps(13.6))
	if err != nil {
		t.Fatal(err)
	}
	if o.Throttle() != nil {
		t.Error("empty oracle must expose a nil throttle, not a typed-nil interface")
	}
}

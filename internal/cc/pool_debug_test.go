//go:build debug

package cc

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Debug-build audit of the CC notification path's packet lifecycle. The
// CNP and ACK frames the manager generates are pool packets with two
// custody handoffs the data path doesn't have — CA control queue in,
// BECN consumption at the far CA before the sink releases — so a
// double-release or retained-pointer bug would live here. Under the
// `debug` tag every Put poisons the packet and a second Put panics, so
// running the complete FECN→CNP/ACK→BECN loop on pooled packets is the
// sweep: any ownership violation aborts the test.

// pooledFlood is throttledFlood acquiring from the network's pool, so
// the debug pool checker sees every data packet's lifetime too.
type pooledFlood struct {
	m           *Manager
	cfg         fabric.Config
	pool        *ib.PacketPool
	src, dst    ib.LID
	nextAllowed sim.Time
	nextID      uint64
}

func (f *pooledFlood) Pull(now sim.Time) (*ib.Packet, sim.Time) {
	if now < f.nextAllowed {
		return nil, f.nextAllowed
	}
	p := f.pool.Get()
	p.ID = f.nextID
	p.Type = ib.DataPacket
	p.Src, p.Dst = f.src, f.dst
	p.PayloadBytes = ib.MTU
	p.MsgID = f.nextID / 2
	p.MsgSeq = uint8(f.nextID % 2)
	p.MsgPackets = 2
	f.nextID++
	ird := f.m.IRD(f.src, f.dst, p.WireBytes())
	f.nextAllowed = now.Add(f.cfg.InjectionRate.TxTime(p.WireBytes()) + ird)
	return p, 0
}

// runPoisonedLoop floods one hotspot through a single crossbar with the
// given parameters and verifies, besides the loop activity itself, that
// the pool's books balance after the run: every acquired packet is
// either still in fabric custody or was released exactly once by a sink.
func runPoisonedLoop(t *testing.T, params Params) Stats {
	t.Helper()
	tp, _ := topo.SingleSwitch(5)
	tn := buildCC(t, tp, params, nil)
	pool := tn.net.PacketPool()
	for s := ib.LID(1); s <= 4; s++ {
		tn.net.HCA(s).SetSource(&pooledFlood{
			m: tn.m, cfg: tn.net.Config(), pool: pool, src: s, dst: 0,
		})
	}
	tn.net.Start()
	tn.net.Sim().RunUntil(sim.Time(0).Add(2 * sim.Millisecond))

	if live, held := pool.Live(), tn.net.HeldPackets(); live != held {
		t.Errorf("pool live %d != fabric held %d after run (%v)", live, held, tn.net.Census())
	}
	var rx uint64
	for lid := 0; lid < tn.net.NumHosts(); lid++ {
		rx += tn.net.HCA(ib.LID(lid)).Counters().RxPackets
	}
	if puts := pool.Stats().Puts; puts != rx {
		t.Errorf("pool puts %d != sink deliveries %d", puts, rx)
	}
	return tn.m.Stats()
}

// TestDebugCNPPathNoDoubleRelease drives the default (immediate CNP)
// notification loop under pool poisoning: FECN-marked data packets at
// the hotspot, CNP frames carrying the BECN back, source CAs consuming
// them.
func TestDebugCNPPathNoDoubleRelease(t *testing.T) {
	st := runPoisonedLoop(t, PaperParams())
	if st.CNPSent == 0 || st.BECNReceived == 0 {
		t.Fatalf("CNP loop never exercised: %+v", st)
	}
}

// TestDebugBECNOnACKPathNoDoubleRelease drives the piggybacked variant:
// every completed message is acknowledged, marked messages carry the
// BECN on the ACK frame.
func TestDebugBECNOnACKPathNoDoubleRelease(t *testing.T) {
	p := PaperParams()
	p.BECNOnACK = true
	st := runPoisonedLoop(t, p)
	if st.ACKSent == 0 {
		t.Fatal("no ACK frames generated in BECNOnACK mode")
	}
	if st.BECNReceived == 0 {
		t.Fatalf("no BECN returned on ACKs: %+v", st)
	}
}
